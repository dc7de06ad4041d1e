open Nectar_sim
open Nectar_core
open Nectar_proto
module Net = Nectar_hub.Network
module World = Nectar_fleet.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- golden span tree: one 64-byte datagram ---------- *)

(* The datagram data path, as label sequence.  Everything else the tracer
   records (cpu scheduling spans, thread lifecycle instants, interrupt
   spans) is deliberately filtered out so the golden stays readable; the
   cross-layer pieces are covered by their own pairing checks below. *)
let path_labels =
  [
    "dgram.send"; "dl.tx"; "tx.dma"; "wire"; "rx.dma"; "dl.rx"; "dgram.deliver";
  ]

let run_one_datagram () =
  let w = World.build () in
  let eng = w.eng and a = w.stacks.(0) and b = w.stacks.(1) in
  let inbox =
    Runtime.create_mailbox b.Stack.rt ~name:"inbox" ~port:Wire.port_first_user
      ()
  in
  let got = ref None in
  ignore
    (Thread.create (Runtime.cab b.Stack.rt) ~name:"receiver" (fun ctx ->
         let m = Mailbox.begin_get ctx inbox in
         got := Some (Message.to_string m);
         Mailbox.end_get ctx m));
  ignore
    (Thread.create (Runtime.cab a.Stack.rt) ~name:"sender" (fun ctx ->
         Engine.sleep eng (Sim_time.ms 1);
         Dgram.send_string ctx a.Stack.dgram ~dst_cab:(Stack.node_id b)
           ~dst_port:Wire.port_first_user (String.make 64 'x')));
  let tracer = Trace.create eng in
  Trace.install tracer;
  Engine.run eng;
  Trace.uninstall ();
  Alcotest.(check (option string))
    "payload delivered"
    (Some (String.make 64 'x'))
    !got;
  tracer

(* Resolve each event to its label ([Span_end] events carry [""]; match
   them back to their begin by id) and keep only the data-path labels. *)
let path_events tracer =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.kind = Trace.Span_begin then Hashtbl.replace by_id e.id e.label)
    (Trace.events tracer);
  List.filter_map
    (fun (e : Trace.event) ->
      let label =
        match e.kind with
        | Trace.Span_end ->
            Option.value (Hashtbl.find_opt by_id e.id) ~default:"?"
        | _ -> e.label
      in
      if List.mem label path_labels then Some (e.kind, label) else None)
    (Trace.events tracer)

let test_golden_datagram () =
  let tracer = run_one_datagram () in
  let golden =
    [
      (Trace.Instant, "dgram.send");
      (Trace.Span_begin, "dl.tx");
      (Trace.Span_end, "dl.tx");
      (Trace.Span_begin, "tx.dma");
      (Trace.Span_begin, "wire");
      (Trace.Span_end, "tx.dma");
      (Trace.Span_end, "wire");
      (* dl.rx fires at frame start — the header interrupt that *starts*
         the receive DMA — so it precedes the rx.dma span *)
      (Trace.Instant, "dl.rx");
      (Trace.Span_begin, "rx.dma");
      (Trace.Span_end, "rx.dma");
      (Trace.Instant, "dgram.deliver");
    ]
  in
  let seen = path_events tracer in
  let show (k, l) =
    (match k with
    | Trace.Span_begin -> "B "
    | Trace.Span_end -> "E "
    | Trace.Instant -> "I ")
    ^ l
  in
  Alcotest.(check (list string))
    "data-path event sequence" (List.map show golden) (List.map show seen);
  (* every data-path span paired up, with causally-ordered begins *)
  let span label =
    match
      List.filter (fun (s : Trace.span) -> s.s_label = label)
        (Trace.spans tracer)
    with
    | [ s ] -> s
    | l -> Alcotest.failf "expected one %s span, got %d" label (List.length l)
  in
  let dl_tx = span "dl.tx"
  and tx_dma = span "tx.dma"
  and wire = span "wire"
  and rx_dma = span "rx.dma" in
  check_bool "dl.tx before tx.dma" true (dl_tx.s_begin <= tx_dma.s_begin);
  check_bool "wire starts under tx.dma" true (tx_dma.s_begin <= wire.s_begin);
  check_bool "rx.dma starts after wire starts" true
    (wire.s_begin <= rx_dma.s_begin);
  check_bool "rx.dma ends after wire delivers its last chunk" true
    (wire.s_end <= rx_dma.s_end);
  check_bool "spans have positive-or-zero width" true
    (List.for_all
       (fun (s : Trace.span) -> s.s_end >= s.s_begin)
       (Trace.spans tracer));
  (* rollup covers the matched span labels *)
  let rolled = List.map (fun (l, _, _) -> l) (Trace.rollup tracer) in
  List.iter
    (fun l ->
      check_bool (l ^ " in rollup") true (List.mem l rolled))
    [ "dl.tx"; "tx.dma"; "wire"; "rx.dma" ]

(* ---------- ring overflow ---------- *)

let test_ring_overflow () =
  let eng = Engine.create () in
  let tracer = Trace.create ~capacity:4 eng in
  Trace.install tracer;
  for i = 0 to 9 do
    Trace.instant ~track:"t" (Printf.sprintf "e%d" i)
  done;
  Trace.uninstall ();
  check_int "recorded counts everything" 10 (Trace.recorded tracer);
  check_int "dropped = overwritten oldest" 6 (Trace.dropped tracer);
  Alcotest.(check (list string))
    "survivors are the newest, oldest first"
    [ "e6"; "e7"; "e8"; "e9" ]
    (List.map (fun (e : Trace.event) -> e.label) (Trace.events tracer));
  Trace.clear tracer;
  check_int "clear resets recorded" 0 (Trace.recorded tracer);
  check_int "clear resets dropped" 0 (Trace.dropped tracer)

(* ---------- disabled tracer allocates nothing ---------- *)

let test_disabled_zero_alloc () =
  Alcotest.(check bool) "no tracer installed" false (Trace.installed ());
  let track = "track" and label = "label" in
  (* warm up so any one-time setup is out of the measured window *)
  ignore (Trace.span_begin ~track label);
  Trace.span_end 0;
  Trace.instant ~track label;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let id = Trace.span_begin ~track label in
    Trace.span_end id;
    Trace.instant ~track label
  done;
  let delta = Gc.minor_words () -. before in
  (* 30k disabled hook calls: any per-call allocation would show up as
     tens of thousands of words; allow a small constant for the Gc calls
     themselves *)
  check_bool
    (Printf.sprintf "disabled path allocation-free (%.0f words)" delta)
    true (delta < 256.)

(* ---------- per-domain tracers ---------- *)

(* [Trace.install] is domain-local state: a tracer installed in one
   domain must be invisible to — and must not race with — every other
   domain, so each partition of the parallel engine records into its
   own ring. *)
let test_install_is_domain_local () =
  let eng = Engine.create () in
  let parent = Trace.create eng in
  Trace.install parent;
  Trace.instant ~track:"parent" "p0";
  let child_saw_parent = ref true in
  let d =
    Domain.spawn (fun () ->
        (* fresh domain: no tracer inherited *)
        child_saw_parent := Trace.installed ();
        let ceng = Engine.create () in
        let child = Trace.create ceng in
        Trace.install child;
        Trace.instant ~track:"child" "c0";
        Trace.instant ~track:"child" "c1";
        Trace.uninstall ();
        child)
  in
  let child = Domain.join d in
  Trace.instant ~track:"parent" "p1";
  Trace.uninstall ();
  check_bool "child domain starts with no tracer" false !child_saw_parent;
  Alcotest.(check (list string))
    "parent ring untouched by child" [ "p0"; "p1" ]
    (List.map (fun (e : Trace.event) -> e.label) (Trace.events parent));
  Alcotest.(check (list string))
    "child ring recorded in its own domain" [ "c0"; "c1" ]
    (List.map (fun (e : Trace.event) -> e.label) (Trace.events child))

(* The zero-alloc-when-disabled pin holds inside a spawned domain too:
   the DLS lookup on the disabled path must not allocate. *)
let test_disabled_zero_alloc_in_domain () =
  let delta =
    Domain.join
      (Domain.spawn (fun () ->
           let track = "track" and label = "label" in
           ignore (Trace.span_begin ~track label);
           Trace.span_end 0;
           Trace.instant ~track label;
           let before = Gc.minor_words () in
           for _ = 1 to 10_000 do
             let id = Trace.span_begin ~track label in
             Trace.span_end id;
             Trace.instant ~track label
           done;
           Gc.minor_words () -. before))
  in
  check_bool
    (Printf.sprintf "disabled path allocation-free in domain (%.0f words)"
       delta)
    true (delta < 256.)

let test_merged () =
  let eng1 = Engine.create () and eng2 = Engine.create () in
  let t1 = Trace.create eng1 and t2 = Trace.create eng2 in
  let record eng t evs =
    Trace.install t;
    List.iter
      (fun (at, label) -> ignore (Engine.at eng at (fun () -> Trace.instant ~track:"m" label)))
      evs;
    Engine.run eng;
    Trace.uninstall ()
  in
  record eng1 t1 [ (10, "a10"); (30, "a30"); (30, "a30'") ];
  record eng2 t2 [ (20, "b20"); (30, "b30") ];
  Alcotest.(check (list (pair int string)))
    "merged is time-sorted, stable within a tick"
    [ (10, "a10"); (20, "b20"); (30, "a30"); (30, "a30'"); (30, "b30") ]
    (List.map
       (fun (e : Trace.event) -> (e.time, e.label))
       (Trace.merged [ t1; t2 ]))

let () =
  Alcotest.run "nectar_trace"
    [
      ( "trace",
        [
          Alcotest.test_case "golden datagram span tree" `Quick
            test_golden_datagram;
          Alcotest.test_case "ring overflow drops oldest" `Quick
            test_ring_overflow;
          Alcotest.test_case "disabled tracer allocates nothing" `Quick
            test_disabled_zero_alloc;
        ] );
      ( "domains",
        [
          Alcotest.test_case "install is domain-local" `Quick
            test_install_is_domain_local;
          Alcotest.test_case "disabled zero-alloc holds in a spawned domain"
            `Quick test_disabled_zero_alloc_in_domain;
          Alcotest.test_case "merged timeline is deterministic" `Quick
            test_merged;
        ] );
    ]
