open Nectar_sim
open Nectar_core
module Region = Nectar_util.Region

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Sim_time.us

let null_ctx eng : Ctx.t =
  { eng; work = (fun _ -> ()); may_block = true; ctx_name = "test"; on_cpu = None }

let nonblocking_ctx eng : Ctx.t =
  { eng; work = (fun _ -> ()); may_block = false; ctx_name = "test-irq"; on_cpu = None }

(* ---------- Buffer_heap ---------- *)

let test_heap_alloc_free () =
  let h = Buffer_heap.create (Region.create 1024) in
  let a = Option.get (Buffer_heap.alloc h 100) in
  Buffer_heap.check_invariants h;
  let b = Option.get (Buffer_heap.alloc h 200) in
  Buffer_heap.check_invariants h;
  check_bool "blocks disjoint" true (b >= a + 100 || a >= b + 200);
  check_int "allocated (rounded)" (100 + 200) (Buffer_heap.allocated_bytes h);
  Buffer_heap.free h a;
  Buffer_heap.check_invariants h;
  Buffer_heap.free h b;
  check_int "all free" 1024 (Buffer_heap.free_bytes h);
  check_int "no live blocks" 0 (Buffer_heap.live_blocks h);
  Buffer_heap.check_invariants h

let test_heap_alignment () =
  let h = Buffer_heap.create (Region.create 64) in
  let a = Option.get (Buffer_heap.alloc h 3) in
  Buffer_heap.check_invariants h;
  check_int "rounded to 4" 4 (Buffer_heap.block_size h a)

let test_heap_coalescing () =
  let h = Buffer_heap.create (Region.create 300) in
  let a = Option.get (Buffer_heap.alloc h 100) in
  let b = Option.get (Buffer_heap.alloc h 100) in
  let c = Option.get (Buffer_heap.alloc h 100) in
  Buffer_heap.check_invariants h;
  Alcotest.(check (option int)) "full" None (Buffer_heap.alloc h 4);
  Buffer_heap.free h a;
  Buffer_heap.check_invariants h;
  Buffer_heap.free h c;
  Buffer_heap.check_invariants h;
  check_int "fragmented: largest is 100" 100 (Buffer_heap.largest_free_block h);
  Buffer_heap.free h b;
  check_int "coalesced back to 300" 300 (Buffer_heap.largest_free_block h);
  Buffer_heap.check_invariants h

let test_heap_double_free () =
  let h = Buffer_heap.create (Region.create 64) in
  let a = Option.get (Buffer_heap.alloc h 8) in
  Buffer_heap.free h a;
  Buffer_heap.check_invariants h;
  Alcotest.check_raises "double free rejected"
    (Invalid_argument "Buffer_heap.free: not a live allocation") (fun () ->
      Buffer_heap.free h a);
  Buffer_heap.check_invariants h

(* The heap is the region's one growth site: a block is backed before its
   offset is returned, growth doubles from 4 KB and stops at the logical
   size, and placement is the same first fit whatever is backed. *)
let test_heap_backs_blocks () =
  let r = Region.create (64 * 1024) in
  let h = Buffer_heap.create r in
  check_int "heap spans the region" (64 * 1024) (Buffer_heap.size h);
  check_int "nothing backed at creation" 0 (Region.resident_bytes r);
  let a = Option.get (Buffer_heap.alloc h 100) in
  check_int "first block at 0" 0 a;
  check_int "first growth backs 4 KB" 4096 (Region.resident_bytes r);
  let b = Option.get (Buffer_heap.alloc h 5000) in
  check_int "first fit after a" 100 b;
  check_int "doubled to cover b" 8192 (Region.resident_bytes r);
  Buffer_heap.free h b;
  check_int "free never shrinks" 8192 (Region.resident_bytes r);
  let c = Option.get (Buffer_heap.alloc h (60 * 1024)) in
  check_int "same placement" 100 c;
  check_int "capped at the logical size" (64 * 1024) (Region.resident_bytes r);
  Alcotest.(check (option int)) "no room for 8 KB more" None
    (Buffer_heap.alloc h (8 * 1024));
  Buffer_heap.check_invariants h

let prop_heap_random_ops =
  QCheck2.Test.make ~name:"heap invariants under random alloc/free"
    QCheck2.Gen.(list (pair bool (int_range 1 512)))
    (fun ops ->
      let h = Buffer_heap.create (Region.create 8192) in
      let live = ref [] in
      List.iter
        (fun (is_alloc, n) ->
          if is_alloc then (
            match Buffer_heap.alloc h n with
            | Some off -> live := off :: !live
            | None -> ())
          else
            match !live with
            | off :: rest ->
                Buffer_heap.free h off;
                live := rest
            | [] -> ())
        ops;
      Buffer_heap.check_invariants h;
      true)

let prop_heap_conservation =
  QCheck2.Test.make ~name:"heap conserves bytes after every operation"
    QCheck2.Gen.(list (pair bool (int_range 1 512)))
    (fun ops ->
      let size = 8192 in
      let h = Buffer_heap.create (Region.create size) in
      let live = ref [] in
      let conserved () =
        Buffer_heap.check_invariants h;
        Buffer_heap.allocated_bytes h + Buffer_heap.free_bytes h = size
      in
      List.for_all
        (fun (is_alloc, n) ->
          (if is_alloc then (
             match Buffer_heap.alloc h n with
             | Some off -> live := off :: !live
             | None -> ())
           else
             match !live with
             | off :: rest ->
                 Buffer_heap.free h off;
                 live := rest
             | [] -> ());
          conserved ())
        ops)

(* The heap against a plain-list first fit (the free list as a sorted,
   coalesced list of (offset, length) pairs): every allocation must land
   at the model's offset, or fail where it fails, and the largest free
   block must agree after every operation.  Frees pick a live block by
   index, so blocks return in any order. *)
let model_alloc free n =
  let n = (n + 3) / 4 * 4 in
  let rec fit acc = function
    | [] -> (None, free)
    | (off, len) :: rest when len >= n ->
        let rest = if len = n then rest else (off + n, len - n) :: rest in
        (Some (off, n), List.rev_append acc rest)
    | block :: rest -> fit (block :: acc) rest
  in
  fit [] free

let rec model_free off len = function
  | [] -> [ (off, len) ]
  | (o, l) :: rest when o + l = off -> (
      match rest with
      | (o2, l2) :: rest2 when off + len = o2 -> (o, l + len + l2) :: rest2
      | _ -> (o, l + len) :: rest)
  | (o, l) :: rest when off + len = o -> (off, len + l) :: rest
  | (o, l) :: rest when off < o -> (off, len) :: (o, l) :: rest
  | block :: rest -> block :: model_free off len rest

let prop_heap_matches_list_model =
  QCheck2.Test.make ~count:300 ~name:"heap places blocks like a list first fit"
    QCheck2.Gen.(list (pair (int_bound 2) (int_range 1 700)))
    (fun ops ->
      let size = 8192 in
      let h = Buffer_heap.create (Region.create size) in
      let free = ref [ (0, size) ] and live = ref [] in
      List.for_all
        (fun (op, n) ->
          let agreed =
            if op < 2 then begin
              let got = Buffer_heap.alloc h n in
              let want, free' = model_alloc !free n in
              free := free';
              (match want with Some b -> live := b :: !live | None -> ());
              got = Option.map fst want
            end
            else
              match !live with
              | [] -> true
              | blocks ->
                  let off, len = List.nth blocks (n mod List.length blocks) in
                  Buffer_heap.free h off;
                  free := model_free off len !free;
                  live := List.filter (fun (o, _) -> o <> off) blocks;
                  true
          in
          agreed
          && Buffer_heap.largest_free_block h
             = List.fold_left (fun m (_, l) -> max m l) 0 !free
          && Buffer_heap.live_blocks h = List.length !live)
        ops)

(* ---------- Message ---------- *)

let scratch_message len =
  let mem = Region.of_bytes (Bytes.make 4096 '\000') in
  Message.make ~mem ~buf_off:100 ~buf_len:512 ~len ~free_buffer:(fun () -> ()) ()

let test_message_rw () =
  let m = scratch_message 64 in
  Message.set_u32 m 0 0xdeadbeef;
  Message.set_u16 m 4 0x1234;
  Message.write_string m 6 "hello";
  check_int "u32" 0xdeadbeef (Message.get_u32 m 0);
  check_int "u16" 0x1234 (Message.get_u16 m 4);
  Alcotest.(check string) "string" "hello"
    (Message.read_string m ~pos:6 ~len:5)

let test_message_adjust () =
  let m = scratch_message 64 in
  Message.write_string m 0 "HEADERpayloadTRAILER";
  Message.adjust_head m 6;
  Message.adjust_tail m (64 - 20);
  Message.adjust_tail m 7;
  Alcotest.(check string) "headers stripped in place" "payload"
    (Message.to_string m);
  check_int "length tracks" 7 (Message.length m)

let test_message_bounds () =
  let m = scratch_message 8 in
  Alcotest.check_raises "read past end"
    (Invalid_argument "Message: access outside message data") (fun () ->
      ignore (Message.get_u32 m 6));
  Alcotest.check_raises "adjust too much"
    (Invalid_argument "Message.adjust_head") (fun () ->
      Message.adjust_head m 9)

(* ---------- Slices (zero-copy views) ---------- *)

let test_slice_reads_window () =
  let m = scratch_message 64 in
  Message.write_string m 0 "....the quick brown fox.................";
  let s = Message.slice m ~pos:4 ~len:19 in
  Alcotest.(check string) "window contents" "the quick brown fox"
    (Message.Slice.read_string s ~pos:0 ~len:19);
  check_int "first byte" (Char.code 't') (Message.Slice.get_u8 s 0);
  (* the slice window is absolute: stripping the owner's header does not
     move it *)
  Message.adjust_head m 10;
  Alcotest.(check string) "stable across adjust_head" "the quick"
    (Message.Slice.read_string s ~pos:0 ~len:9);
  Message.Slice.release s

let test_slice_refcount_pins_buffer () =
  let freed = ref false in
  let mem = Region.of_bytes (Bytes.make 256 '\000') in
  let m =
    Message.make ~mem ~buf_off:0 ~buf_len:64 ~len:32
      ~free_buffer:(fun () -> freed := true)
      ()
  in
  let s = Message.slice m ~pos:0 ~len:16 in
  let sub = Message.Slice.sub s ~pos:4 ~len:8 in
  check_int "three references" 3 (Message.refs m);
  Message.release m (* the owner lets go *);
  check_bool "buffer pinned by slices" false !freed;
  Message.Slice.release s;
  check_bool "still pinned by the sub-slice" false !freed;
  Message.Slice.release sub;
  check_bool "freed with the last reference" true !freed;
  Alcotest.check_raises "later retain is a use-after-free"
    (Invalid_argument "Message.retain: message buffer already freed")
    (fun () -> Message.retain m)

(* An in-flight frame over a message's slice reads the region as it is
   now.  Force the heap to grow after the frame is built, then poison the
   message's buffer: the frame's hardware CRC must see the poison, not a
   stale pre-growth copy of the bytes. *)
let test_frame_sees_grown_memory () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  let rt = Runtime.create cab in
  let mem = Runtime.mem rt in
  check_int "1 MB CAB" (1 lsl 20) (Region.size mem);
  let mb = Runtime.create_mailbox rt ~name:"tx" ~cached_buffer_bytes:0 () in
  let ctx = nonblocking_ctx eng in
  let m = Option.get (Mailbox.try_begin_put ctx mb 256) in
  Message.write_string m 0 (String.init 256 (fun i -> Char.chr (i land 0xff)));
  let s = Message.slice m ~pos:0 ~len:256 in
  let reg, off, len = Message.Slice.extent s in
  let frame =
    Nectar_hub.Frame.outgoing ~src:0 ~route:[] ~header_bytes:1 reg ~off ~len
      ~tail:[]
      (Owner
         { value = s; ops = { release = Message.Slice.release; sent = ignore } })
  in
  Nectar_hub.Frame.latch frame ~id:0;
  check_bool "crc ok as sent" true (Nectar_hub.Frame.crc_ok frame);
  let backed = Region.resident_bytes mem in
  let big = Option.get (Buffer_heap.alloc (Runtime.heap rt) (200 * 1024)) in
  check_bool "the allocation grew the backing" true
    (Region.resident_bytes mem > backed);
  Bytes.fill (Message.bytes m) m.Message.off 256 '\xde';
  check_bool "frame reads the poisoned live bytes" false
    (Nectar_hub.Frame.crc_ok frame);
  Nectar_hub.Frame.release frame;
  Buffer_heap.free (Runtime.heap rt) big;
  Mailbox.abort_put ctx mb m

let test_slice_bounds () =
  let m = scratch_message 32 in
  Alcotest.check_raises "slice outside message"
    (Invalid_argument "Message.slice: outside message data") (fun () ->
      ignore (Message.slice m ~pos:30 ~len:4));
  let s = Message.slice m ~pos:8 ~len:8 in
  Alcotest.check_raises "sub outside slice"
    (Invalid_argument "Message.Slice.sub: outside slice") (fun () ->
      ignore (Message.Slice.sub s ~pos:4 ~len:8));
  Alcotest.check_raises "read outside slice"
    (Invalid_argument "Message.Slice: access outside slice") (fun () ->
      ignore (Message.Slice.read_string s ~pos:6 ~len:4));
  Message.Slice.release s;
  Alcotest.check_raises "double release"
    (Invalid_argument "Message.Slice.release: already released") (fun () ->
      Message.Slice.release s)

let prop_nested_slices_read_same_bytes =
  QCheck2.Test.make ~name:"nested sub-slices read the parent's bytes"
    QCheck2.Gen.(triple (int_range 0 63) (int_range 0 63) (int_range 0 63))
    (fun (a, b, c) ->
      let len = 64 in
      let m = scratch_message len in
      for i = 0 to len - 1 do
        Message.set_u8 m i (i * 7 mod 256)
      done;
      (* clamp the random triple into a valid nested chain *)
      let p1 = a mod len in
      let l1 = len - p1 in
      let s1 = Message.slice m ~pos:p1 ~len:l1 in
      let p2 = if l1 = 0 then 0 else b mod l1 in
      let l2 = l1 - p2 in
      let s2 = Message.Slice.sub s1 ~pos:p2 ~len:l2 in
      let p3 = if l2 = 0 then 0 else c mod l2 in
      let l3 = l2 - p3 in
      let s3 = Message.Slice.sub s2 ~pos:p3 ~len:l3 in
      let direct = Message.read_string m ~pos:(p1 + p2 + p3) ~len:l3 in
      let through = Message.Slice.read_string s3 ~pos:0 ~len:l3 in
      Message.Slice.release s3;
      Message.Slice.release s2;
      Message.Slice.release s1;
      direct = through && Message.refs m = 1)

let prop_slice_refcount_conservation =
  QCheck2.Test.make
    ~name:"heap live blocks return to baseline after slices die"
    (* every block stays pinned until its slice dies, so bound the batch
       well under the 8 KB heap *)
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 1 12))
    (fun lens ->
      let eng = Engine.create () in
      let heap = Buffer_heap.create (Region.create 8192) in
      let mb =
        Mailbox.create eng ~heap ~name:"mb" ~cached_buffer_bytes:0 ()
      in
      let ctx = null_ctx eng in
      let baseline = Buffer_heap.live_blocks heap in
      let ok = ref true in
      Engine.spawn eng (fun () ->
          let slices =
            List.map
              (fun n ->
                let m = Mailbox.begin_put ctx mb (16 + n) in
                let s = Message.slice m ~pos:0 ~len:n in
                Mailbox.end_put ctx mb m;
                let r = Mailbox.begin_get ctx mb in
                Mailbox.end_get ctx r;
                s)
              lens
          in
          (* every owner has freed, yet every block is still pinned *)
          ok :=
            !ok && Buffer_heap.live_blocks heap = baseline + List.length lens;
          List.iter Message.Slice.release slices;
          ok := !ok && Buffer_heap.live_blocks heap = baseline);
      Engine.run eng;
      !ok)

let test_headroom_prepend () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Region.create 4096) in
  let mb = Mailbox.create eng ~heap ~name:"mb" () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let m = Mailbox.begin_put ctx mb ~headroom:12 20 in
      check_int "headroom hidden from the payload view" 20 (Message.length m);
      Message.write_string m 0 (String.make 20 'p');
      (* a protocol layer prepends its header in place *)
      Message.push_head m 12;
      check_int "header space reclaimed" 32 (Message.length m);
      Message.write_string m 0 (String.make 12 'H');
      Alcotest.check_raises "cannot prepend past the reserved headroom"
        (Invalid_argument "Message.push_head") (fun () ->
          Message.push_head m 1);
      Alcotest.(check string) "header and payload adjacent"
        (String.make 12 'H' ^ String.make 20 'p')
        (Message.to_string m);
      Mailbox.end_put ctx mb m;
      let r = Mailbox.begin_get ctx mb in
      check_int "receiver sees header + payload" 32 (Message.length r);
      Mailbox.end_get ctx r);
  Engine.run eng

(* ---------- Mailbox ---------- *)

let make_mailbox ?byte_limit ?cached_buffer_bytes ?upcall () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Region.create (64 * 1024)) in
  let mbox =
    Mailbox.create eng ~heap ~name:"mb" ?byte_limit ?cached_buffer_bytes
      ?upcall ()
  in
  (eng, heap, mbox)

let test_mailbox_roundtrip () =
  let eng, _, mb = make_mailbox () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let m = Mailbox.begin_put ctx mb 11 in
      Message.write_string m 0 "hello world";
      Mailbox.end_put ctx mb m;
      let r = Mailbox.begin_get ctx mb in
      Alcotest.(check string) "content" "hello world" (Message.to_string r);
      Mailbox.end_get ctx r);
  Engine.run eng;
  check_int "puts" 1 (Mailbox.puts mb);
  check_int "gets" 1 (Mailbox.gets mb);
  check_int "no bytes leak" 0 (Mailbox.bytes_in_use mb)

let test_mailbox_fifo_order () =
  let eng, _, mb = make_mailbox () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      List.iter
        (fun s ->
          let m = Mailbox.begin_put ctx mb (String.length s) in
          Message.write_string m 0 s;
          Mailbox.end_put ctx mb m)
        [ "one"; "two"; "three" ];
      let got =
        List.init 3 (fun _ ->
            let r = Mailbox.begin_get ctx mb in
            let s = Message.to_string r in
            Mailbox.end_get ctx r;
            s)
      in
      Alcotest.(check (list string)) "fifo" [ "one"; "two"; "three" ] got);
  Engine.run eng

let test_mailbox_reader_blocks () =
  let eng, _, mb = make_mailbox () in
  let ctx = null_ctx eng in
  let got_at = ref (-1) in
  Engine.spawn eng (fun () ->
      let r = Mailbox.begin_get ctx mb in
      got_at := Engine.now eng;
      Mailbox.end_get ctx r);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 25);
      let m = Mailbox.begin_put ctx mb 4 in
      Message.write_string m 0 "ping";
      Mailbox.end_put ctx mb m);
  Engine.run eng;
  check_int "reader woke when message arrived" (us 25) !got_at

let test_mailbox_writer_blocks_on_limit () =
  let eng, _, mb = make_mailbox ~byte_limit:256 ~cached_buffer_bytes:0 () in
  let ctx = null_ctx eng in
  let second_put_at = ref (-1) in
  Engine.spawn eng (fun () ->
      let m1 = Mailbox.begin_put ctx mb 200 in
      Mailbox.end_put ctx mb m1;
      let m2 = Mailbox.begin_put ctx mb 200 in
      second_put_at := Engine.now eng;
      Mailbox.end_put ctx mb m2);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 40);
      let r = Mailbox.begin_get ctx mb in
      Mailbox.end_get ctx r);
  Engine.run eng;
  check_int "writer waited for space" (us 40) !second_put_at

let test_mailbox_try_variants () =
  let eng, _, mb = make_mailbox ~byte_limit:128 ~cached_buffer_bytes:0 () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      check_bool "empty try_get" true (Mailbox.try_begin_get ctx mb = None);
      let m = Option.get (Mailbox.try_begin_put ctx mb 100) in
      Mailbox.end_put ctx mb m;
      check_bool "full try_put" true (Mailbox.try_begin_put ctx mb 100 = None);
      let r = Option.get (Mailbox.try_begin_get ctx mb) in
      Mailbox.end_get ctx r);
  Engine.run eng

let test_mailbox_blocking_from_interrupt_forbidden () =
  let eng, _, mb = make_mailbox () in
  let ctx = nonblocking_ctx eng in
  Engine.spawn eng (fun () ->
      Alcotest.check_raises "begin_get from interrupt"
        (Invalid_argument
           "Mailbox.begin_get: blocking operation from test-irq") (fun () ->
          ignore (Mailbox.begin_get ctx mb)));
  Engine.run eng

let test_mailbox_upcall_runs_in_caller () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Region.create 4096) in
  let upcalled = ref [] in
  let mb =
    Mailbox.create eng ~heap ~name:"served"
      ~upcall:(fun ctx mb ->
        (* runs as a local call in the writer's context: consume in place *)
        match Mailbox.try_begin_get ctx mb with
        | Some m ->
            upcalled := (Message.to_string m, Engine.now eng) :: !upcalled;
            Mailbox.end_get ctx m
        | None -> Alcotest.fail "upcall with empty queue")
      ()
  in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 7);
      let m = Mailbox.begin_put ctx mb 3 in
      Message.write_string m 0 "rpc";
      Mailbox.end_put ctx mb m;
      (* the upcall must have run synchronously during end_put *)
      check_int "handled before end_put returned" 1 (List.length !upcalled));
  Engine.run eng;
  match !upcalled with
  | [ (content, at) ] ->
      Alcotest.(check string) "content" "rpc" content;
      check_int "in caller's time, no context switch" (us 7) at
  | _ -> Alcotest.fail "expected exactly one upcall"

let test_mailbox_enqueue_zero_copy () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Region.create 8192) in
  let src =
    Mailbox.create eng ~heap ~name:"ip-input" ~cached_buffer_bytes:0 ()
  in
  let dst =
    Mailbox.create eng ~heap ~name:"udp-input" ~cached_buffer_bytes:0 ()
  in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let m = Mailbox.begin_put ctx src 300 in
      Message.write_string m 0 "IPHDR+payload";
      Mailbox.end_put ctx src m;
      let held = Mailbox.begin_get ctx src in
      let buf_before = held.Message.off in
      Message.adjust_head held 6;
      Mailbox.enqueue ctx held dst;
      check_int "src accounting dropped" 0 (Mailbox.bytes_in_use src);
      check_bool "dst accounting holds the buffer" true
        (Mailbox.bytes_in_use dst >= 300);
      let r = Mailbox.begin_get ctx dst in
      check_int "same buffer, no copy" (buf_before + 6) r.Message.off;
      check_int "length preserved" (300 - 6) (Message.length r);
      Alcotest.(check string) "header stripped view" "payload"
        (Message.read_string r ~pos:0 ~len:7);
      Mailbox.end_get ctx r);
  Engine.run eng;
  check_int "buffer returned to heap" 0 (Buffer_heap.live_blocks heap)

let test_mailbox_cached_buffer () =
  let eng, heap, mb = make_mailbox ~cached_buffer_bytes:128 () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      (* cache slot itself is one live heap block *)
      let base_blocks = Buffer_heap.live_blocks heap in
      let m = Mailbox.begin_put ctx mb 64 in
      check_int "small put uses the cache, no heap alloc" base_blocks
        (Buffer_heap.live_blocks heap);
      Mailbox.end_put ctx mb m;
      let r = Mailbox.begin_get ctx mb in
      Mailbox.end_get ctx r;
      check_int "cache hit counted" 1 (Mailbox.cache_hits mb);
      let big = Mailbox.begin_put ctx mb 2000 in
      check_int "big put goes to the heap" (base_blocks + 1)
        (Buffer_heap.live_blocks heap);
      Mailbox.abort_put ctx mb big);
  Engine.run eng

let test_mailbox_enqueued_cache_buffer_stays_live () =
  let eng = Engine.create () in
  let heap = Buffer_heap.create (Region.create 8192) in
  let src = Mailbox.create eng ~heap ~name:"src" ~cached_buffer_bytes:128 () in
  let dst = Mailbox.create eng ~heap ~name:"dst" ~cached_buffer_bytes:0 () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let m = Mailbox.begin_put ctx src 32 in
      Message.write_string m 0 "cached-content";
      Mailbox.end_put ctx src m;
      let held = Mailbox.begin_get ctx src in
      Mailbox.enqueue ctx held dst;
      (* while dst holds the cache-backed message, src must not reuse it *)
      let m2 = Mailbox.begin_put ctx src 32 in
      Message.write_string m2 0 "XXXXXXXXXXXXXX";
      let r = Mailbox.begin_get ctx dst in
      Alcotest.(check string)
        "enqueued cached message not clobbered" "cached-content"
        (Message.read_string r ~pos:0 ~len:14);
      Mailbox.end_get ctx r;
      Mailbox.abort_put ctx src m2);
  Engine.run eng

let test_mailbox_abort_put_accounting () =
  let eng, heap, mb = make_mailbox ~byte_limit:1024 ~cached_buffer_bytes:0 () in
  let ctx = null_ctx eng in
  let got = ref "" in
  (* a reader parked on the mailbox must not observe an aborted put *)
  Engine.spawn eng (fun () ->
      let r = Mailbox.begin_get ctx mb in
      got := Message.to_string r;
      Mailbox.end_get ctx r);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 10);
      let base_blocks = Buffer_heap.live_blocks heap in
      let base_bytes = Mailbox.bytes_in_use mb in
      let m = Mailbox.begin_put ctx mb 300 in
      check_bool "put charged" true (Mailbox.bytes_in_use mb > base_bytes);
      Mailbox.abort_put ctx mb m;
      check_int "bytes_in_use back to baseline" base_bytes
        (Mailbox.bytes_in_use mb);
      check_int "heap block returned" base_blocks
        (Buffer_heap.live_blocks heap);
      Buffer_heap.check_invariants heap;
      let m2 = Mailbox.begin_put ctx mb 7 in
      Message.write_string m2 0 "for-you";
      Mailbox.end_put ctx mb m2);
  Engine.run eng;
  Alcotest.(check string) "reader saw only the completed put" "for-you" !got;
  check_int "nothing left accounted" 0 (Mailbox.bytes_in_use mb)

let prop_mailbox_model =
  QCheck2.Test.make ~name:"mailbox behaves as a FIFO of strings"
    QCheck2.Gen.(list (pair bool (string_size (int_range 0 200))))
    (fun ops ->
      let eng = Engine.create () in
      let heap = Buffer_heap.create (Region.create 65536) in
      let mb = Mailbox.create eng ~heap ~name:"model" () in
      let ctx = null_ctx eng in
      let model = Queue.create () in
      let ok = ref true in
      Engine.spawn eng (fun () ->
          List.iter
            (fun (is_put, s) ->
              if is_put then (
                match Mailbox.try_begin_put ctx mb (String.length s) with
                | Some m ->
                    Message.write_string m 0 s;
                    Mailbox.end_put ctx mb m;
                    Queue.add s model
                | None -> ())
              else
                match (Mailbox.try_begin_get ctx mb, Queue.take_opt model) with
                | None, None -> ()
                | Some m, Some expect ->
                    if Message.to_string m <> expect then ok := false;
                    Mailbox.end_get ctx m
                | _ -> ok := false)
            ops);
      Engine.run eng;
      !ok
      && Mailbox.queued_messages mb = Queue.length model
      && (Buffer_heap.check_invariants heap;
          true))

(* ---------- Threads ---------- *)

let make_cab () =
  let eng = Engine.create () in
  let net = Nectar_hub.Network.create eng ~hubs:1 () in
  let cab = Nectar_cab.Cab.create net ~hub:0 ~port:0 ~name:"cab" in
  (eng, cab)

let test_thread_switch_cost () =
  let eng, cab = make_cab () in
  let a_done = ref (-1) and b_done = ref (-1) in
  let a =
    Thread.create cab ~name:"a" (fun ctx ->
        ctx.work (us 10);
        a_done := Engine.now eng)
  in
  ignore a;
  let b =
    Thread.create cab ~name:"b" (fun ctx ->
        ctx.work (us 10);
        b_done := Engine.now eng)
  in
  ignore b;
  Engine.run eng;
  check_int "a pays its switch-in" (us 30) !a_done;
  check_int "b pays the 20us context switch" (us 60) !b_done

let test_thread_priority_preemption () =
  let eng, cab = make_cab () in
  let app_done = ref (-1) and sys_done = ref (-1) in
  ignore
    (Thread.create cab ~priority:Thread.App ~name:"app" (fun ctx ->
         ctx.work (us 200);
         app_done := Engine.now eng));
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 50);
      ignore
        (Thread.create cab ~priority:Thread.System ~name:"sys" (fun ctx ->
             ctx.work (us 30);
             sys_done := Engine.now eng)));
  Engine.run eng;
  (* app: switch 20 + work until preempted at 50; sys: switch 20 + 30 = 100;
     app resumes with another switch 20 and its remaining 170. *)
  check_int "system thread preempts" (us 100) !sys_done;
  check_int "app finishes after" (us 290) !app_done

let test_thread_join () =
  let eng, cab = make_cab () in
  let joined_at = ref (-1) in
  let worker =
    Thread.create cab ~name:"worker" (fun ctx -> ctx.work (us 42))
  in
  ignore
    (Thread.create cab ~name:"parent" (fun ctx ->
         Thread.join ctx worker;
         joined_at := Engine.now eng));
  Engine.run eng;
  check_bool "joined after worker finished" true (!joined_at >= us 42);
  check_bool "worker marked finished" true (Thread.is_finished worker)

let test_thread_masked_section_defers_interrupt () =
  let eng, cab = make_cab () in
  let irq_at = ref (-1) in
  let t = ref None in
  let thread =
    Thread.create cab ~name:"crit" (fun ctx ->
        Thread.with_interrupts_masked (Option.get !t) (fun () ->
            ctx.work (us 100)))
  in
  t := Some thread;
  ignore
    (Engine.after eng (us 30) (fun () ->
         Nectar_cab.Interrupts.post (Nectar_cab.Cab.irq cab) ~name:"tick"
           (fun ictx ->
             Nectar_cab.Interrupts.work ictx (us 1);
             irq_at := Engine.now eng)));
  Engine.run eng;
  (* thread: 20 switch + 100 atomic work = 120; irq then dispatches + 1us *)
  check_int "interrupt deferred past critical section"
    (us 121 + Nectar_cab.Costs.irq_dispatch_ns)
    !irq_at

(* ---------- Mutex / Condvar ---------- *)

let test_mutex_excludes () =
  let eng, cab = make_cab () in
  let m = Lock.Mutex.create eng ~name:"m" in
  let log = ref [] in
  for i = 1 to 2 do
    ignore
      (Thread.create cab ~name:(Printf.sprintf "t%d" i) (fun ctx ->
           Lock.Mutex.with_lock ctx m (fun () ->
               log := (i, `In, Engine.now eng) :: !log;
               Engine.sleep eng (us 50);
               log := (i, `Out, Engine.now eng) :: !log)))
  done;
  Engine.run eng;
  match List.rev !log with
  | [ (1, `In, _); (1, `Out, out1); (2, `In, in2); (2, `Out, _) ] ->
      check_bool "no overlap" true (in2 >= out1)
  | _ -> Alcotest.fail "critical sections interleaved"

let test_condvar_wakeup () =
  let eng, cab = make_cab () in
  let m = Lock.Mutex.create eng ~name:"m" in
  let cv = Lock.Condvar.create eng ~name:"cv" in
  let ready = ref false and observed = ref false in
  ignore
    (Thread.create cab ~name:"waiter" (fun ctx ->
         Lock.Mutex.lock ctx m;
         while not !ready do
           Lock.Condvar.wait ctx cv m
         done;
         observed := true;
         Lock.Mutex.unlock ctx m));
  ignore
    (Thread.create cab ~name:"signaler" (fun ctx ->
         Engine.sleep eng (us 80);
         Lock.Mutex.lock ctx m;
         ready := true;
         Lock.Condvar.signal cv;
         Lock.Mutex.unlock ctx m));
  Engine.run eng;
  check_bool "condition observed" true !observed

let test_condvar_timeout () =
  let eng, cab = make_cab () in
  let m = Lock.Mutex.create eng ~name:"m" in
  let cv = Lock.Condvar.create eng ~name:"cv" in
  let result = ref `Signaled in
  ignore
    (Thread.create cab ~name:"waiter" (fun ctx ->
         Lock.Mutex.lock ctx m;
         result := Lock.Condvar.wait_timeout ctx cv m (us 30);
         Lock.Mutex.unlock ctx m));
  Engine.run eng;
  check_bool "timed out" true (!result = `Timeout)

(* ---------- Sync ---------- *)

let test_sync_write_then_read () =
  let eng = Engine.create () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let s = Sync.alloc ctx eng ~name:"s" in
      Sync.write ctx s 77;
      check_int "read back" 77 (Sync.read ctx s);
      check_bool "freed" true (Sync.state s = Sync.Freed));
  Engine.run eng

let test_sync_read_blocks () =
  let eng = Engine.create () in
  let ctx = null_ctx eng in
  let got = ref (-1) and got_at = ref (-1) in
  let s = ref None in
  Engine.spawn eng (fun () ->
      let sync = Sync.alloc ctx eng ~name:"s" in
      s := Some sync;
      got := Sync.read ctx sync;
      got_at := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.sleep eng (us 60);
      Sync.write ctx (Option.get !s) 5);
  Engine.run eng;
  check_int "value" 5 !got;
  check_int "woke on write" (us 60) !got_at

let test_sync_cancel () =
  let eng = Engine.create () in
  let ctx = null_ctx eng in
  Engine.spawn eng (fun () ->
      let s = Sync.alloc ctx eng ~name:"s" in
      Sync.cancel ctx s;
      check_bool "canceled" true (Sync.state s = Sync.Canceled);
      Sync.write ctx s 1;
      check_bool "write frees canceled sync" true (Sync.state s = Sync.Freed);
      let s2 = Sync.alloc ctx eng ~name:"s2" in
      Sync.write ctx s2 1;
      Alcotest.check_raises "double write"
        (Invalid_argument "Sync.write: already written: s2") (fun () ->
          Sync.write ctx s2 2));
  Engine.run eng

(* ---------- Runtime ---------- *)

let test_runtime_ports_and_signals () =
  let eng, cab = make_cab () in
  let rt = Runtime.create cab in
  let mb = Runtime.create_mailbox rt ~name:"svc" ~port:9 () in
  check_bool "port lookup" true
    (match Runtime.mailbox_at rt ~port:9 with
    | Some m -> m == mb
    | None -> false);
  check_bool "unbound port" true (Runtime.mailbox_at rt ~port:10 = None);
  let got = ref (-1) in
  Runtime.register_opcode rt ~opcode:1 (fun _ctx ~param -> got := param);
  Runtime.post_to_cab rt ~opcode:1 ~param:42;
  Engine.run eng;
  check_int "opcode handler ran with param" 42 !got;
  check_int "signal counted" 1 (Runtime.cab_signals rt);
  Runtime.notify_host rt ~opcode:3 ~param:1;
  check_int "host notification counted even unattached" 1
    (Runtime.host_notifications rt)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "nectar_core"
    [
      ( "buffer_heap",
        [
          Alcotest.test_case "alloc/free" `Quick test_heap_alloc_free;
          Alcotest.test_case "alignment" `Quick test_heap_alignment;
          Alcotest.test_case "coalescing" `Quick test_heap_coalescing;
          Alcotest.test_case "double free" `Quick test_heap_double_free;
          Alcotest.test_case "alloc backs its block" `Quick
            test_heap_backs_blocks;
          qtest prop_heap_random_ops;
          qtest prop_heap_conservation;
          qtest prop_heap_matches_list_model;
        ] );
      ( "message",
        [
          Alcotest.test_case "read/write" `Quick test_message_rw;
          Alcotest.test_case "adjust" `Quick test_message_adjust;
          Alcotest.test_case "bounds" `Quick test_message_bounds;
        ] );
      ( "slice",
        [
          Alcotest.test_case "reads its window" `Quick test_slice_reads_window;
          Alcotest.test_case "refcount pins buffer" `Quick
            test_slice_refcount_pins_buffer;
          Alcotest.test_case "bounds and lifecycle" `Quick test_slice_bounds;
          Alcotest.test_case "headroom prepend" `Quick test_headroom_prepend;
          Alcotest.test_case "in-flight frame sees heap growth" `Quick
            test_frame_sees_grown_memory;
          qtest prop_nested_slices_read_same_bytes;
          qtest prop_slice_refcount_conservation;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "roundtrip" `Quick test_mailbox_roundtrip;
          Alcotest.test_case "fifo order" `Quick test_mailbox_fifo_order;
          Alcotest.test_case "reader blocks" `Quick test_mailbox_reader_blocks;
          Alcotest.test_case "writer blocks on limit" `Quick
            test_mailbox_writer_blocks_on_limit;
          Alcotest.test_case "try variants" `Quick test_mailbox_try_variants;
          Alcotest.test_case "no blocking from interrupts" `Quick
            test_mailbox_blocking_from_interrupt_forbidden;
          Alcotest.test_case "reader upcall" `Quick
            test_mailbox_upcall_runs_in_caller;
          Alcotest.test_case "enqueue zero-copy" `Quick
            test_mailbox_enqueue_zero_copy;
          Alcotest.test_case "cached buffer" `Quick test_mailbox_cached_buffer;
          Alcotest.test_case "enqueued cache buffer stays live" `Quick
            test_mailbox_enqueued_cache_buffer_stays_live;
          Alcotest.test_case "abort_put accounting" `Quick
            test_mailbox_abort_put_accounting;
          qtest prop_mailbox_model;
        ] );
      ( "threads",
        [
          Alcotest.test_case "context switch cost" `Quick
            test_thread_switch_cost;
          Alcotest.test_case "priority preemption" `Quick
            test_thread_priority_preemption;
          Alcotest.test_case "join" `Quick test_thread_join;
          Alcotest.test_case "masked critical section" `Quick
            test_thread_masked_section_defers_interrupt;
        ] );
      ( "locks",
        [
          Alcotest.test_case "mutex excludes" `Quick test_mutex_excludes;
          Alcotest.test_case "condvar wakeup" `Quick test_condvar_wakeup;
          Alcotest.test_case "condvar timeout" `Quick test_condvar_timeout;
        ] );
      ( "sync",
        [
          Alcotest.test_case "write then read" `Quick test_sync_write_then_read;
          Alcotest.test_case "read blocks" `Quick test_sync_read_blocks;
          Alcotest.test_case "cancel" `Quick test_sync_cancel;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "ports and signals" `Quick
            test_runtime_ports_and_signals;
        ] );
    ]
