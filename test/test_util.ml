open Nectar_util

let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec search i = i + nn <= nh && (String.sub haystack i nn = needle || search (i + 1)) in
  search 0

(* ---------- CRC-32 ---------- *)

let test_crc_known_vectors () =
  check_int "crc32(123456789)" 0xcbf43926 (Crc32.digest_string "123456789");
  check_int "crc32(empty)" 0 (Crc32.digest_string "");
  check_int "crc32(a)" 0xe8b7be43 (Crc32.digest_string "a");
  check_int "crc32(abc)" 0x352441c2 (Crc32.digest_string "abc")

let test_crc_range () =
  let b = Bytes.of_string "xxhelloyy" in
  check_int "sub-range" (Crc32.digest_string "hello")
    (Crc32.digest b ~pos:2 ~len:5);
  List.iter
    (fun init ->
      Alcotest.check_raises "init outside 32 bits"
        (Invalid_argument "Crc32.digest") (fun () ->
          ignore (Crc32.digest ~init b ~pos:0 ~len:9)))
    [ -1; 1 lsl 32 ]

let prop_crc_chaining =
  QCheck2.Test.make ~name:"crc32 chaining equals concatenation"
    QCheck2.Gen.(pair string string)
    (fun (a, b) ->
      let whole = Crc32.digest_string (a ^ b) in
      let chained =
        Crc32.digest ~init:(Crc32.digest_string a)
          (Bytes.of_string b) ~pos:0 ~len:(String.length b)
      in
      whole = chained)

let prop_crc_detects_single_bit_flip =
  QCheck2.Test.make ~name:"crc32 detects any single-bit flip"
    QCheck2.Gen.(pair (string_size (int_range 1 64)) (int_bound 1_000_000))
    (fun (s, r) ->
      let b = Bytes.of_string s in
      let bit = r mod (Bytes.length b * 8) in
      let original = Crc32.digest b ~pos:0 ~len:(Bytes.length b) in
      let i = bit / 8 and m = 1 lsl (bit mod 8) in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor m);
      Crc32.digest b ~pos:0 ~len:(Bytes.length b) <> original)

(* ---------- Internet checksum ---------- *)

let test_inet_known () =
  (* RFC 1071 §3 example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2, cksum 220d *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071 example" 0x220d (Inet_checksum.checksum b ~pos:0 ~len:8)

let test_inet_odd_length () =
  let b = Bytes.of_string "\x01\x02\x03" in
  (* words: 0102, 0300 -> sum 0402 -> cksum fbfd *)
  check_int "odd length" 0xfbfd (Inet_checksum.checksum b ~pos:0 ~len:3)

let prop_inet_valid_after_insert =
  QCheck2.Test.make ~name:"inserting checksum makes buffer valid"
    QCheck2.Gen.(string_size (int_range 2 256))
    (fun s ->
      let b = Bytes.of_string s in
      (* zero a 16-bit checksum field at offset 0, compute, insert, check *)
      Bytes.set_uint16_be b 0 0;
      let c = Inet_checksum.checksum b ~pos:0 ~len:(Bytes.length b) in
      Bytes.set_uint16_be b 0 c;
      (* all-zero data has checksum 0xffff stored; valid() must still hold *)
      Inet_checksum.valid b ~pos:0 ~len:(Bytes.length b))

let prop_inet_detects_word_change =
  QCheck2.Test.make ~name:"checksum changes when a word changes"
    QCheck2.Gen.(triple (string_size (int_range 4 64)) small_nat small_nat)
    (fun (s, off, delta) ->
      let b = Bytes.of_string s in
      let len = Bytes.length b land lnot 1 in
      let off = off mod (len / 2) * 2 in
      let before = Inet_checksum.checksum b ~pos:0 ~len in
      let w = Bytes.get_uint16_be b off in
      let delta = 1 + (delta mod 0xfffe) in
      let w' = (w + delta) land 0xffff in
      QCheck2.assume (w' <> w && not (w lxor w' = 0xffff));
      Bytes.set_uint16_be b off w';
      Inet_checksum.checksum b ~pos:0 ~len <> before)

(* ---------- Differential: kernels vs byte-at-a-time references ---------- *)

(* Bitwise CRC-32 (reflected 0xedb88320), one byte at a time, no tables. *)
let ref_crc ?(init = 0) b ~pos ~len =
  let c = ref (init lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

(* Unfolded sum of big-endian 16-bit words, an odd last byte padded. *)
let ref_sum ?(init = 0) b ~pos ~len =
  let acc = ref init in
  for k = 0 to (len / 2) - 1 do
    acc := !acc + Bytes.get_uint16_be b (pos + (2 * k))
  done;
  if len land 1 = 1 then
    acc := !acc + (Char.code (Bytes.get b (pos + len - 1)) lsl 8);
  !acc

let random_bytes st n =
  Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every start offset 0-15 against every length 0-300, random [?init]:
   each alignment meets every 8-byte block boundary and every tail
   length. *)
let test_kernels_every_alignment () =
  let st = Random.State.make [| 1071 |] in
  let b = random_bytes st 320 in
  for pos = 0 to 15 do
    for len = 0 to 300 do
      let crc_init = Random.State.bits st land 0xffffffff in
      let sum_init = Random.State.bits st in
      let where = Printf.sprintf " pos %d len %d" pos len in
      check_int ("crc32" ^ where) (ref_crc ~init:crc_init b ~pos ~len)
        (Crc32.digest ~init:crc_init b ~pos ~len);
      check_int ("sum" ^ where) (ref_sum ~init:sum_init b ~pos ~len)
        (Inet_checksum.sum ~init:sum_init b ~pos ~len);
      let expect = Inet_checksum.finish (ref_sum b ~pos ~len) in
      check_int ("checksum" ^ where) expect
        (Inet_checksum.checksum b ~pos ~len);
      Alcotest.(check bool) ("valid" ^ where) (expect = 0)
        (Inet_checksum.valid b ~pos ~len)
    done
  done

(* All-ones bytes fill every 16-bit lane of the checksum's bulk loop to
   its limit; lengths around the fold period and an 8 KB segment catch a
   lane that overflows before it is folded. *)
let test_sum_saturated_lanes () =
  let b = Bytes.make 9000 '\xff' in
  List.iter
    (fun len ->
      List.iter
        (fun pos ->
          check_int (Printf.sprintf "sum pos %d len %d" pos len)
            (ref_sum b ~pos ~len) (Inet_checksum.sum b ~pos ~len))
        [ 0; 1; 7 ])
    [ 1016; 1023; 1024; 1025; 1032; 2048; 2056; 4097; 8192; 8193 ]

let test_crc_check_vector_every_offset () =
  let st = Random.State.make [| 0xcbf4 |] in
  for off = 0 to 63 do
    let b = random_bytes st (off + 9 + 11) in
    Bytes.blit_string "123456789" 0 b off 9;
    check_int (Printf.sprintf "check vector at %d" off) 0xcbf43926
      (Crc32.digest b ~pos:off ~len:9)
  done

let gen_range =
  QCheck2.Gen.(
    let* s = string_size (int_range 0 600) in
    let n = String.length s in
    let* pos = int_bound n in
    let* len = int_bound (n - pos) in
    let* init = int_bound 0xffffffff in
    return (Bytes.of_string s, pos, len, init))

let prop_crc_chained_ranges =
  QCheck2.Test.make ~count:300 ~name:"crc32 chained over a random split"
    QCheck2.Gen.(pair gen_range small_nat)
    (fun ((b, pos, len, init), cut) ->
      let cut = if len = 0 then 0 else cut mod (len + 1) in
      let first = Crc32.digest ~init b ~pos ~len:cut in
      Crc32.digest ~init:first b ~pos:(pos + cut) ~len:(len - cut)
      = ref_crc ~init b ~pos ~len)

(* Chaining through [init] holds when the first range has even length. *)
let prop_sum_chained_even_split =
  QCheck2.Test.make ~count:300 ~name:"sum chained over an even split"
    QCheck2.Gen.(pair gen_range small_nat)
    (fun ((b, pos, len, init), cut) ->
      let cut = if len = 0 then 0 else cut mod (len + 1) land lnot 1 in
      let first = Inet_checksum.sum ~init b ~pos ~len:cut in
      Inet_checksum.sum ~init:first b ~pos:(pos + cut) ~len:(len - cut)
      = ref_sum ~init b ~pos ~len)

(* A scatter/gather frame whose extents start and end on odd offsets:
   the wire CRC is the reference CRC of the concatenated bytes, and a bit
   flipped in any extent fails the receiver's check. *)
let prop_frame_sg_crc =
  QCheck2.Test.make ~count:200 ~name:"Frame.crc_ok over odd extent boundaries"
    QCheck2.Gen.(
      triple
        (string_size (int_range 1 400))
        (list_size (int_range 1 6) small_nat)
        small_nat)
    (fun (s, cuts, flip) ->
      let n = String.length s in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> (2 * c + 1) mod n) cuts)
      in
      let rec pieces from = function
        | [] -> [ (from, n - from) ]
        | c :: rest when c > from -> (from, c - from) :: pieces c rest
        | _ :: rest -> pieces from rest
      in
      let extents =
        List.mapi
          (fun i (off, len) ->
            (* each piece sits at an odd offset inside its own region *)
            let pad = (2 * i) + 1 in
            let r = Bytes.make (pad + len + 3) '\x5a' in
            Bytes.blit_string s off r pad len;
            (Region.of_bytes r, pad, len))
          (pieces 0 cuts)
      in
      let f =
        Nectar_hub.Frame.create_sg ~id:0 ~src:0 ~extents
          ~on_release:(fun () -> ())
      in
      let whole = Bytes.of_string s in
      let intact =
        f.Nectar_hub.Frame.wire_crc = ref_crc whole ~pos:0 ~len:n
        && Nectar_hub.Frame.crc_ok f
      in
      let r, pad, len = List.nth extents (flip mod List.length extents) in
      let i = pad + (flip mod len) in
      let rb = Region.bytes r in
      Bytes.set_uint8 rb i (Bytes.get_uint8 rb i lxor (1 lsl (flip mod 8)));
      intact && not (Nectar_hub.Frame.crc_ok f))

(* ---------- Byte_view ---------- *)

let prop_u16_roundtrip =
  QCheck2.Test.make ~name:"u16 set/get roundtrip"
    QCheck2.Gen.(pair (int_bound 0xffff) (int_bound 13))
    (fun (v, off) ->
      let b = Bytes.create 16 in
      Byte_view.set_u16 b off v;
      Byte_view.get_u16 b off = v)

let prop_u32_roundtrip =
  QCheck2.Test.make ~name:"u32 set/get roundtrip"
    QCheck2.Gen.(pair (int_bound 0xffffffff) (int_bound 12))
    (fun (v, off) ->
      let b = Bytes.create 16 in
      Byte_view.set_u32 b off v;
      Byte_view.get_u32 b off = v)

let test_u32_high_bit () =
  let b = Bytes.create 4 in
  Byte_view.set_u32 b 0 0xdeadbeef;
  check_int "high-bit u32" 0xdeadbeef (Byte_view.get_u32 b 0)

let test_hex_dump () =
  let b = Bytes.of_string "ABC\x00\xff" in
  let dump = Byte_view.hex_dump b ~pos:0 ~len:5 in
  Alcotest.(check bool) "contains hex" true (contains dump "41 42 43 00 ff");
  Alcotest.(check bool) "contains ascii gutter" true (contains dump "|ABC..|")

(* ---------- Int_key ---------- *)

let test_int_key_rejects_out_of_range () =
  let rejects name f = Alcotest.check_raises name
      (Invalid_argument ("Int_key." ^ name ^ ": component out of range"))
      (fun () -> ignore (f ()))
  in
  rejects "cab_port" (fun () -> Int_key.cab_port ~cab:(-1) ~port:0);
  rejects "cab_port" (fun () -> Int_key.cab_port ~cab:0 ~port:0x1_0000);
  rejects "cab_txn" (fun () -> Int_key.cab_txn ~cab:0x4000_0000 ~txn:0);
  rejects "cab_txn" (fun () -> Int_key.cab_txn ~cab:0 ~txn:0x1_0000_0000);
  rejects "tcp_conn" (fun () ->
      Int_key.tcp_conn ~lport:0 ~raddr:(-3) ~rport:0);
  rejects "tcp_conn" (fun () ->
      Int_key.tcp_conn ~lport:0x1_0000 ~raddr:0 ~rport:0)

let gen_port = QCheck2.Gen.int_range 0 0xffff
let gen_cab = QCheck2.Gen.int_range 0 0x3fff_ffff
let gen_txn = QCheck2.Gen.int_range 0 0xffff_ffff

let prop_cab_port_injective =
  QCheck2.Test.make ~name:"cab_port distinct inputs -> distinct keys"
    QCheck2.Gen.(quad gen_cab gen_port gen_cab gen_port)
    (fun (c1, p1, c2, p2) ->
      let k1 = Int_key.cab_port ~cab:c1 ~port:p1
      and k2 = Int_key.cab_port ~cab:c2 ~port:p2 in
      (k1 = k2) = (c1 = c2 && p1 = p2))

let prop_cab_txn_injective =
  QCheck2.Test.make ~name:"cab_txn distinct inputs -> distinct keys"
    QCheck2.Gen.(quad gen_cab gen_txn gen_cab gen_txn)
    (fun (c1, x1, c2, x2) ->
      let k1 = Int_key.cab_txn ~cab:c1 ~txn:x1
      and k2 = Int_key.cab_txn ~cab:c2 ~txn:x2 in
      (k1 = k2) = (c1 = c2 && x1 = x2))

let prop_tcp_conn_injective =
  QCheck2.Test.make ~name:"tcp_conn distinct inputs -> distinct keys"
    QCheck2.Gen.(
      pair (triple gen_port gen_cab gen_port) (triple gen_port gen_cab gen_port))
    (fun ((l1, a1, r1), (l2, a2, r2)) ->
      let k1 = Int_key.tcp_conn ~lport:l1 ~raddr:a1 ~rport:r1
      and k2 = Int_key.tcp_conn ~lport:l2 ~raddr:a2 ~rport:r2 in
      (k1 = k2) = (l1 = l2 && a1 = a2 && r1 = r2))

(* ---------- Copy_meter ---------- *)

(* ---------- Region ---------- *)

let test_region_zero_after_growth () =
  let r = Region.create (1 lsl 20) in
  check_int "nothing backed" 0 (Region.resident_bytes r);
  Region.back r 10;
  check_int "first growth is the 4 KB minimum" 4096 (Region.resident_bytes r);
  Region.back r 100_000;
  check_int "doubled past the request" 131_072 (Region.resident_bytes r);
  Alcotest.(check bool) "untouched bytes read as zero" true
    (Bytes.for_all (fun c -> c = '\000') (Region.bytes r))

let test_region_growth_keeps_contents () =
  let r = Region.create 65_536 in
  Region.back r 4096;
  let before = Region.bytes r in
  Bytes.blit_string "nectar" 0 before 4000 6;
  Region.back r 4097;
  let after = Region.bytes r in
  Alcotest.(check bool) "growth replaced the backing" false (before == after);
  Alcotest.(check string) "contents carried over" "nectar"
    (Bytes.sub_string after 4000 6);
  check_int "zero beyond the old backing" 0 (Bytes.get_uint8 after 4096);
  Region.back r 100;
  Alcotest.(check bool) "backing an already-backed prefix is a no-op" true
    (Region.bytes r == after)

let test_region_capped_at_size () =
  let r = Region.create 10_000 in
  Region.back r 9_000;
  check_int "doubling stops at the logical size" 10_000
    (Region.resident_bytes r);
  let small = Region.create 300 in
  Region.back small 1;
  check_int "a region below the minimum backs its size" 300
    (Region.resident_bytes small);
  let fixed = Region.of_bytes (Bytes.make 64 'x') in
  check_int "a fixed region is all backed" 64 (Region.resident_bytes fixed);
  Region.back fixed 64;
  check_int "and never grows" 64 (Region.resident_bytes fixed)

let test_region_out_of_range () =
  let r = Region.create 8192 in
  Alcotest.check_raises "beyond the logical size"
    (Invalid_argument "Region.back: outside the region") (fun () ->
      Region.back r 8193);
  Alcotest.check_raises "negative"
    (Invalid_argument "Region.back: outside the region") (fun () ->
      Region.back r (-1));
  Alcotest.check_raises "negative size"
    (Invalid_argument "Region.create: negative size") (fun () ->
      ignore (Region.create (-1)));
  Region.back r 8;
  Alcotest.check_raises "past the backing"
    (Invalid_argument "index out of bounds")
    (fun () -> ignore (Bytes.get (Region.bytes r) (Region.resident_bytes r)))

let test_copy_meter_counts () =
  Copy_meter.reset ();
  check_int "fresh: no copies" 0 (Copy_meter.copies ());
  Copy_meter.record ~owner:"cab-a" Copy_meter.App 100;
  Copy_meter.record ~owner:"cab-a" Copy_meter.App 28;
  Copy_meter.record ~owner:"cab-b" Copy_meter.Host 64;
  Copy_meter.record Copy_meter.Rxread 12;
  check_int "total copies" 4 (Copy_meter.copies ());
  check_int "total bytes" (100 + 28 + 64 + 12) (Copy_meter.bytes_copied ());
  check_int "by site" 2 (Copy_meter.copies ~site:Copy_meter.App ());
  check_int "by site bytes" 128 (Copy_meter.bytes_copied ~site:Copy_meter.App ());
  check_int "by owner" 2 (Copy_meter.copies ~owner:"cab-a" ());
  check_int "by owner and site" 1
    (Copy_meter.copies ~owner:"cab-b" ~site:Copy_meter.Host ());
  check_int "absent combination" 0
    (Copy_meter.bytes_copied ~owner:"cab-a" ~site:Copy_meter.Host ());
  check_int "eliminated site stays zero" 0
    (Copy_meter.copies ~site:Copy_meter.Txsnap ());
  Copy_meter.reset ();
  check_int "reset clears" 0 (Copy_meter.bytes_copied ())

let test_copy_meter_report () =
  Copy_meter.reset ();
  Copy_meter.record ~owner:"b" Copy_meter.Frag 10;
  Copy_meter.record ~owner:"a" Copy_meter.App 5;
  Copy_meter.record ~owner:"a" Copy_meter.App 7;
  Alcotest.(check (list (triple string int int)))
    "per-site report in fixed order, zero sites omitted"
    [ ("frag", 1, 10); ("app", 2, 12) ]
    (Copy_meter.report ());
  Alcotest.(check (list (triple string int int)))
    "per-owner report sorted by name"
    [ ("a", 2, 12); ("b", 1, 10) ]
    (Copy_meter.report_owners ());
  Copy_meter.reset ()

(* ---------- Metrics registry merge ---------- *)

type hist = { n : int; mean : float; stddev : float; min : float; max : float }

let find_hist reg name =
  match List.assoc name (Metrics.snapshot reg) with
  | Metrics.Hist { n; mean; stddev; min; max } -> { n; mean; stddev; min; max }
  | _ -> Alcotest.failf "%s is not a histogram" name
  | exception Not_found -> Alcotest.failf "%s missing" name

let feed reg name xs = List.iter (Metrics.observe reg name) xs

let test_metrics_merge_edges () =
  (* empty into populated: populated side's moments must be untouched *)
  let dst = Metrics.create () and src = Metrics.create () in
  Metrics.histogram dst "lat";
  Metrics.histogram src "lat";
  feed dst "lat" [ 1.0; 3.0 ];
  Metrics.merge dst src;
  let h = find_hist dst "lat" in
  check_int "n preserved" 2 h.n;
  Alcotest.(check (float 1e-12)) "mean preserved" 2.0 h.mean;
  Alcotest.(check (float 1e-12)) "min preserved" 1.0 h.min;
  Alcotest.(check (float 1e-12)) "max preserved" 3.0 h.max;
  (* populated into empty: moments copied verbatim *)
  let dst2 = Metrics.create () in
  Metrics.histogram dst2 "lat";
  Metrics.merge dst2 dst;
  let h2 = find_hist dst2 "lat" in
  check_int "copied n" 2 h2.n;
  Alcotest.(check (float 1e-12)) "copied mean" 2.0 h2.mean;
  Alcotest.(check (float 1e-12)) "copied stddev" h.stddev h2.stddev;
  (* name absent from dst is created *)
  let extra = Metrics.create () in
  Metrics.histogram extra "other";
  feed extra "other" [ 9.0 ];
  Metrics.merge dst2 extra;
  check_int "absent name created" 1 (find_hist dst2 "other").n;
  (* merge onto a name registered as a counter is rejected *)
  let bad = Metrics.create () in
  Metrics.counter bad "lat" (fun () -> 0);
  (try
     Metrics.merge bad dst;
     Alcotest.fail "merge onto counter accepted"
   with Invalid_argument _ -> ())

let test_metrics_merge_welford_offset () =
  (* two shards around 1e9: combined moments must match a single-stream
     fold of all six samples (Chan's parallel rule, no cancellation) *)
  let a = Metrics.create () and b = Metrics.create () and r = Metrics.create () in
  List.iter (fun m -> Metrics.histogram m "lat") [ a; b; r ];
  let xs = [ 1e9; 1e9 +. 1.; 1e9 +. 2. ]
  and ys = [ 1e9 +. 10.; 1e9 +. 11.; 1e9 +. 12. ] in
  feed a "lat" xs;
  feed b "lat" ys;
  feed r "lat" (xs @ ys);
  Metrics.merge a b;
  let got = find_hist a "lat" and want = find_hist r "lat" in
  check_int "n" want.n got.n;
  Alcotest.(check (float 1e-6)) "mean" want.mean got.mean;
  Alcotest.(check (float 1e-6)) "stddev" want.stddev got.stddev;
  Alcotest.(check (float 1e-12)) "min" want.min got.min;
  Alcotest.(check (float 1e-12)) "max" want.max got.max

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nectar_util"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc_known_vectors;
          Alcotest.test_case "sub-range" `Quick test_crc_range;
          qtest prop_crc_chaining;
          qtest prop_crc_detects_single_bit_flip;
        ] );
      ( "inet_checksum",
        [
          Alcotest.test_case "rfc1071 vector" `Quick test_inet_known;
          Alcotest.test_case "odd length" `Quick test_inet_odd_length;
          qtest prop_inet_valid_after_insert;
          qtest prop_inet_detects_word_change;
        ] );
      ( "differential",
        [
          Alcotest.test_case "every alignment and tail" `Quick
            test_kernels_every_alignment;
          Alcotest.test_case "saturated checksum lanes" `Quick
            test_sum_saturated_lanes;
          Alcotest.test_case "check vector at every offset" `Quick
            test_crc_check_vector_every_offset;
          qtest prop_crc_chained_ranges;
          qtest prop_sum_chained_even_split;
          qtest prop_frame_sg_crc;
        ] );
      ( "byte_view",
        [
          Alcotest.test_case "u32 high bit" `Quick test_u32_high_bit;
          Alcotest.test_case "hex dump" `Quick test_hex_dump;
          qtest prop_u16_roundtrip;
          qtest prop_u32_roundtrip;
        ] );
      ( "region",
        [
          Alcotest.test_case "zero after growth" `Quick
            test_region_zero_after_growth;
          Alcotest.test_case "growth keeps contents" `Quick
            test_region_growth_keeps_contents;
          Alcotest.test_case "capped at size" `Quick test_region_capped_at_size;
          Alcotest.test_case "out of range" `Quick test_region_out_of_range;
        ] );
      ( "copy_meter",
        [
          Alcotest.test_case "counts and filters" `Quick test_copy_meter_counts;
          Alcotest.test_case "reports" `Quick test_copy_meter_report;
        ] );
      ( "int_key",
        [
          Alcotest.test_case "out of range" `Quick
            test_int_key_rejects_out_of_range;
          qtest prop_cab_port_injective;
          qtest prop_cab_txn_injective;
          qtest prop_tcp_conn_injective;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge edge cases" `Quick test_metrics_merge_edges;
          Alcotest.test_case "merge welford at 1e9 offset" `Quick
            test_metrics_merge_welford_offset;
        ] );
    ]
