open Nectar_sim
open Nectar_core
open Nectar_proto
module Cab = Nectar_cab.Cab
module Interrupts = Nectar_cab.Interrupts
module Costs = Nectar_cab.Costs
module Net = Nectar_hub.Network
module Topology = Nectar_fleet.Topology
module Byte_view = Nectar_util.Byte_view
module Metrics = Nectar_util.Metrics
module Summary = Nectar_util.Summary

(* ---------- spanning trees ---------- *)

module Tree = struct
  type t = {
    troot : int;
    tparent : int array;
    tchildren : int array array;
    tdepth : int array;
  }

  (* Validation doubles as the depth computation: every node must reach
     the root by parent pointers without revisiting itself — which is
     exactly connected + acyclic + full coverage for a parent-array
     encoding. *)
  let of_parents ~root parent =
    let n = Array.length parent in
    if n = 0 then invalid_arg "Coll.Tree: empty tree";
    if root < 0 || root >= n then invalid_arg "Coll.Tree: root out of range";
    if parent.(root) <> -1 then
      invalid_arg "Coll.Tree: root must have parent -1";
    let depth = Array.make n (-1) in
    depth.(root) <- 0;
    for v = 0 to n - 1 do
      if depth.(v) < 0 then begin
        (* climb to a node of known depth, then unwind *)
        let path = ref [] in
        let u = ref v in
        let steps = ref 0 in
        while depth.(!u) < 0 do
          incr steps;
          if !steps > n then invalid_arg "Coll.Tree: cycle in parent array";
          let p = parent.(!u) in
          if p < 0 || p >= n then
            invalid_arg "Coll.Tree: parent out of range (disconnected)";
          path := !u :: !path;
          u := p
        done;
        (* [path] heads with the node nearest the known-depth ancestor *)
        let d = ref depth.(!u) in
        List.iter
          (fun w ->
            incr d;
            depth.(w) <- !d)
          !path
      end
    done;
    let counts = Array.make n 0 in
    Array.iteri
      (fun v p -> if v <> root then counts.(p) <- counts.(p) + 1)
      parent;
    let fill = Array.make n 0 in
    let children = Array.map (fun c -> Array.make c 0) counts in
    for v = 0 to n - 1 do
      if v <> root then begin
        let p = parent.(v) in
        children.(p).(fill.(p)) <- v;
        fill.(p) <- fill.(p) + 1
      end
    done;
    { troot = root; tparent = parent; tchildren = children; tdepth = depth }

  let of_topology topo ~root =
    of_parents ~root (Topology.spanning_tree topo ~root)

  let size t = Array.length t.tparent
  let root t = t.troot
  let parent t v = t.tparent.(v)
  let children t v = t.tchildren.(v)
  let depth t v = t.tdepth.(v)
  let max_depth t = Array.fold_left max 0 t.tdepth

  let max_fanout t =
    Array.fold_left (fun m c -> max m (Array.length c)) 0 t.tchildren
end

(* ---------- wire format ---------- *)

(* One collective frame: opcode byte, 32-bit operation sequence number,
   64-bit value (reduce contributions and results; zero elsewhere), then
   the broadcast payload.  Everything rides RMP on the well-known port,
   so delivery is exactly-once and in order per (sender, receiver). *)

let port = 0x60
let done_opcode = 0x60
let arrival_opcode = 0x61
let header_bytes = 13

(* up the tree *)
let op_reduce_up = 'R'
let op_bcast_ack = 'A'

(* down the tree *)
let op_release = 'D'
let op_bcast_payload = 'P'

(* host-driven baseline (star) *)
let op_base_arrive = 'B'
let op_base_release = 'E'

let encode ~op ~seq ~value payload =
  let b = Bytes.create (header_bytes + String.length payload) in
  Bytes.set b 0 op;
  Byte_view.set_u32 b 1 (seq land 0xffff_ffff);
  let v = Int64.of_int value in
  Byte_view.set_u32 b 5 Int64.(to_int (shift_right_logical v 32));
  Byte_view.set_u32 b 9 Int64.(to_int (logand v 0xffff_ffffL));
  Bytes.blit_string payload 0 b header_bytes (String.length payload);
  Bytes.unsafe_to_string b

let decode s =
  if String.length s < header_bytes then
    invalid_arg "Coll: short collective frame";
  let b = Bytes.unsafe_of_string s in
  let op = Bytes.get b 0 in
  let seq = Byte_view.get_u32 b 1 in
  let hi = Int64.of_int (Byte_view.get_u32 b 5) in
  let lo = Int64.of_int (Byte_view.get_u32 b 9) in
  let value = Int64.(to_int (logor (shift_left hi 32) lo)) in
  let payload = String.sub s header_bytes (String.length s - header_bytes) in
  (op, seq, value, payload)

(* ---------- per-operation combining state ---------- *)

(* Alive from the first event of an operation (a message can precede the
   local call, and vice versa) until both the local caller has consumed
   the result and this node's protocol role is over. *)
type opstate = {
  mutable arrived : int; (* child up-waves (all participants at a star root) *)
  mutable acc : int;
  mutable have_acc : bool;
  mutable self_in : bool;
  mutable self_val : int;
  mutable sent_up : bool;
  mutable acked : int; (* broadcast: children whose subtrees hold the payload *)
  mutable released : bool;
  mutable result : int;
  mutable payload : string;
  mutable span : int; (* root-side critical-path span; 0 elsewhere *)
  mutable consumed : bool;
  mutable proto_done : bool;
}

let fresh_op () =
  {
    arrived = 0;
    acc = 0;
    have_acc = false;
    self_in = false;
    self_val = 0;
    sent_up = false;
    acked = 0;
    released = false;
    result = 0;
    payload = "";
    span = 0;
    consumed = false;
    proto_done = false;
  }

(* Host-side time each baseline arrival costs at the root before the
   host can issue the release. *)
let host_service_ns = Costs.host_irq_dispatch_ns + Costs.host_syscall_ns

type t = {
  stack : Stack.t;
  ttree : Tree.t;
  trank : int;
  tparent : int; (* -1 at the root *)
  tchildren : int array;
  track : string;
  mbox : Mailbox.t;
  wq : Waitq.t;
  combine : int -> int -> int;
  mutable next_seq : int; (* tree operations *)
  mutable base_seq : int; (* baseline operations *)
  ops : (int, opstate) Hashtbl.t;
  base_ops : (int, opstate) Hashtbl.t;
  ops_count : Stats.Counter.t;
  up_count : Stats.Counter.t;
  down_count : Stats.Counter.t;
}

let rank t = t.trank
let tree t = t.ttree
let rt t = t.stack.Stack.rt
let is_root t = t.tparent < 0
let size t = Tree.size t.ttree

let op_state tbl seq =
  match Hashtbl.find_opt tbl seq with
  | Some st -> st
  | None ->
      let st = fresh_op () in
      Hashtbl.replace tbl seq st;
      st

let gc tbl seq st = if st.consumed && st.proto_done then Hashtbl.remove tbl seq

(* ---------- sends ---------- *)

let send ctx t ~dst ~op ~seq ~value payload =
  (if op = op_reduce_up || op = op_bcast_ack || op = op_base_arrive then
     Stats.Counter.incr t.up_count
   else Stats.Counter.incr t.down_count);
  Rmp.send_string ctx t.stack.Stack.rmp ~dst_cab:dst ~dst_port:port
    (encode ~op ~seq ~value payload)

(* ---------- completion ---------- *)

(* The single end-of-collective interrupt: however many signals race
   toward "operation complete", the latched post dispatches one handler,
   and that handler issues the one host notification of the whole
   operation.  The handler runs at interrupt level under the vet
   discipline checker: it only charges work and signals — no blocking. *)
let complete_op t seq st =
  if st.span > 0 then begin
    Trace.span_end st.span;
    st.span <- 0
  end;
  let run = rt t in
  Interrupts.post_coalesced
    (Cab.irq (Runtime.cab run))
    ~key:(Printf.sprintf "coll-done#%d" seq)
    ~name:"coll-done"
    (fun ictx ->
      let ictx = Ctx.of_interrupt ictx in
      ictx.Ctx.work Costs.signal_queue_op_ns;
      Runtime.notify_host run ~opcode:done_opcode ~param:seq)

let release t st ~result =
  st.released <- true;
  st.result <- result;
  ignore (Waitq.broadcast t.wq)

(* ---------- the up wave ---------- *)

let fold_with_self t st =
  if st.have_acc then t.combine st.acc st.self_val else st.self_val

(* Callable from the local caller (on entry) and from the daemon (on a
   child arrival) — whichever event completes this node's subtree sends
   the combined contribution up, or completes the operation at the root.
   Both contexts are blocking-legal threads, so the down wave's RMP
   sends can run inline. *)
let maybe_advance_up ctx t seq st =
  if st.self_in && (not st.sent_up) && st.arrived = Array.length t.tchildren
  then begin
    st.sent_up <- true;
    let v = fold_with_self t st in
    if is_root t then begin
      complete_op t seq st;
      release t st ~result:v;
      st.proto_done <- true;
      Array.iter
        (fun c -> send ctx t ~dst:c ~op:op_release ~seq ~value:v "")
        t.tchildren;
      gc t.ops seq st
    end
    else send ctx t ~dst:t.tparent ~op:op_reduce_up ~seq ~value:v ""
  end

(* ---------- the daemon ---------- *)

let dispatch ctx t s =
  let op, seq, value, payload = decode s in
  if op = op_base_arrive || op = op_base_release then begin
    let st = op_state t.base_ops seq in
    if op = op_base_arrive then begin
      (* star root: every arrival crosses to the host — one wakeup and
         one service slice per participant before the release can go
         out.  This is the host-driven design the tree path replaces. *)
      Trace.instant ~track:t.track "coll.host.arrival";
      Runtime.notify_host (rt t) ~opcode:arrival_opcode ~param:seq;
      Engine.sleep ctx.Ctx.eng host_service_ns;
      st.arrived <- st.arrived + 1;
      st.acc <- (if st.have_acc then t.combine st.acc value else value);
      st.have_acc <- true;
      if st.arrived = size t && st.self_in then begin
        let result = st.acc in
        st.proto_done <- true;
        for n = 0 to size t - 1 do
          if n <> t.trank then
            send ctx t ~dst:n ~op:op_base_release ~seq ~value:result
              st.payload
        done;
        (* the baseline's critical path runs through the host-issued
           release wave, so the span closes after it *)
        if st.span > 0 then begin
          Trace.span_end st.span;
          st.span <- 0
        end;
        release t st ~result;
        gc t.base_ops seq st
      end
    end
    else begin
      st.payload <- payload;
      st.proto_done <- true;
      release t st ~result:value;
      gc t.base_ops seq st
    end
  end
  else begin
    let st = op_state t.ops seq in
    if op = op_reduce_up then begin
      Trace.instant ~track:t.track "coll.up";
      st.arrived <- st.arrived + 1;
      st.acc <- (if st.have_acc then t.combine st.acc value else value);
      st.have_acc <- true;
      maybe_advance_up ctx t seq st
    end
    else if op = op_release then begin
      Trace.instant ~track:t.track "coll.release";
      release t st ~result:value;
      st.proto_done <- true;
      Array.iter
        (fun c -> send ctx t ~dst:c ~op:op_release ~seq ~value "")
        t.tchildren;
      gc t.ops seq st
    end
    else if op = op_bcast_payload then begin
      Trace.instant ~track:t.track "coll.payload";
      st.payload <- payload;
      release t st ~result:0;
      Array.iter
        (fun c -> send ctx t ~dst:c ~op:op_bcast_payload ~seq ~value:0 payload)
        t.tchildren;
      if Array.length t.tchildren = 0 then begin
        (* leaf: the subtree is this node alone — ack immediately *)
        st.proto_done <- true;
        send ctx t ~dst:t.tparent ~op:op_bcast_ack ~seq ~value:0 "";
        gc t.ops seq st
      end
    end
    else if op = op_bcast_ack then begin
      st.acked <- st.acked + 1;
      if st.acked = Array.length t.tchildren then begin
        st.proto_done <- true;
        if is_root t then begin
          complete_op t seq st;
          release t st ~result:0
        end
        else send ctx t ~dst:t.tparent ~op:op_bcast_ack ~seq ~value:0 "";
        gc t.ops seq st
      end
    end
    else invalid_arg (Printf.sprintf "Coll: unknown opcode %C" op)
  end

let daemon t ctx =
  while true do
    let msg = Mailbox.begin_get ctx t.mbox in
    let s = Message.to_string msg in
    Mailbox.end_get ctx msg;
    dispatch ctx t s
  done

(* ---------- attachment ---------- *)

let attach ?(combine = ( + )) stack ~tree =
  let run = stack.Stack.rt in
  let node = Runtime.node_id run in
  if node < 0 || node >= Tree.size tree then
    invalid_arg "Coll.attach: node outside the tree";
  let cab_name = Cab.name (Runtime.cab run) in
  let t =
    {
      stack;
      ttree = tree;
      trank = node;
      tparent = Tree.parent tree node;
      tchildren = Tree.children tree node;
      track = cab_name ^ ".coll";
      mbox =
        Runtime.create_mailbox run ~name:(cab_name ^ ".coll") ~port ();
      wq = Waitq.create (Runtime.engine run) ~name:(cab_name ^ ".coll-wq") ();
      combine;
      next_seq = 0;
      base_seq = 0;
      ops = Hashtbl.create 16;
      base_ops = Hashtbl.create 16;
      ops_count = Stats.Counter.create ();
      up_count = Stats.Counter.create ();
      down_count = Stats.Counter.create ();
    }
  in
  Stack.register_service stack ~name:"coll" (fun reg ->
      let prefix = cab_name ^ "." in
      Metrics.counter reg (prefix ^ "coll.ops") (fun () ->
          Stats.Counter.value t.ops_count);
      Metrics.counter reg (prefix ^ "coll.up_msgs") (fun () ->
          Stats.Counter.value t.up_count);
      Metrics.counter reg (prefix ^ "coll.down_msgs") (fun () ->
          Stats.Counter.value t.down_count);
      Metrics.counter reg (prefix ^ "coll.host_wakeups") (fun () ->
          Runtime.host_notifications run));
  ignore (Runtime.spawn_thread run ~name:(cab_name ^ ".coll-daemon") (daemon t));
  t

let register_metrics t reg ~prefix =
  Metrics.counter reg (prefix ^ "coll.ops") (fun () ->
      Stats.Counter.value t.ops_count);
  Metrics.counter reg (prefix ^ "coll.up_msgs") (fun () ->
      Stats.Counter.value t.up_count);
  Metrics.counter reg (prefix ^ "coll.down_msgs") (fun () ->
      Stats.Counter.value t.down_count)

let ops_completed t = Stats.Counter.value t.ops_count
let up_messages t = Stats.Counter.value t.up_count
let down_messages t = Stats.Counter.value t.down_count

(* ---------- tree operations ---------- *)

let await ctx t st =
  ignore ctx;
  while not st.released do
    Waitq.wait t.wq
  done;
  st.result

let reduce ctx t value =
  Ctx.assert_may_block ctx "Coll.reduce";
  ctx.Ctx.work Costs.sync_op_ns;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let st = op_state t.ops seq in
  if is_root t then st.span <- Trace.span_begin ~track:t.track "coll.op";
  st.self_in <- true;
  st.self_val <- value;
  maybe_advance_up ctx t seq st;
  let result = await ctx t st in
  st.consumed <- true;
  gc t.ops seq st;
  Stats.Counter.incr t.ops_count;
  result

let barrier ctx t = ignore (reduce ctx t 1)

let bcast ctx t payload_opt =
  Ctx.assert_may_block ctx "Coll.bcast";
  ctx.Ctx.work Costs.sync_op_ns;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let st = op_state t.ops seq in
  st.self_in <- true;
  let result =
    if is_root t then begin
      let payload =
        match payload_opt with
        | Some p -> p
        | None -> invalid_arg "Coll.bcast: root must supply the payload"
      in
      st.span <- Trace.span_begin ~track:t.track "coll.op";
      st.payload <- payload;
      if Array.length t.tchildren = 0 then begin
        (* single-node communicator: complete on the spot *)
        complete_op t seq st;
        release t st ~result:0;
        st.proto_done <- true
      end
      else
        Array.iter
          (fun c ->
            send ctx t ~dst:c ~op:op_bcast_payload ~seq ~value:0 payload)
          t.tchildren;
      ignore (await ctx t st);
      st.payload
    end
    else begin
      if payload_opt <> None then
        invalid_arg "Coll.bcast: only the root supplies the payload";
      ignore (await ctx t st);
      st.payload
    end
  in
  st.consumed <- true;
  gc t.ops seq st;
  Stats.Counter.incr t.ops_count;
  result

(* ---------- host-driven baseline ---------- *)

let host_op ctx t ~value ~payload_opt =
  Ctx.assert_may_block ctx "Coll.host op";
  ctx.Ctx.work Costs.sync_op_ns;
  let seq = t.base_seq in
  t.base_seq <- seq + 1;
  let st = op_state t.base_ops seq in
  st.self_in <- true;
  if is_root t then begin
    st.span <- Trace.span_begin ~track:t.track "coll.host_op";
    (match payload_opt with Some p -> st.payload <- p | None -> ());
    (* the root's own arrival crosses to the host too *)
    Trace.instant ~track:t.track "coll.host.arrival";
    Runtime.notify_host (rt t) ~opcode:arrival_opcode ~param:seq;
    Engine.sleep ctx.Ctx.eng host_service_ns;
    st.arrived <- st.arrived + 1;
    st.acc <- (if st.have_acc then t.combine st.acc value else value);
    st.have_acc <- true;
    if st.arrived = size t then begin
      let result = st.acc in
      st.proto_done <- true;
      for n = 0 to size t - 1 do
        if n <> t.trank then
          send ctx t ~dst:n ~op:op_base_release ~seq ~value:result st.payload
      done;
      if st.span > 0 then begin
        Trace.span_end st.span;
        st.span <- 0
      end;
      release t st ~result
    end
  end
  else begin
    if payload_opt <> None then
      invalid_arg "Coll.host_bcast: only the root supplies the payload";
    send ctx t ~dst:(Tree.root t.ttree) ~op:op_base_arrive ~seq ~value ""
  end;
  let result = await ctx t st in
  st.consumed <- true;
  gc t.base_ops seq st;
  Stats.Counter.incr t.ops_count;
  (result, st.payload)

let host_barrier ctx t = ignore (host_op ctx t ~value:1 ~payload_opt:None)
let host_reduce ctx t value = fst (host_op ctx t ~value ~payload_opt:None)

let host_bcast ctx t payload_opt =
  snd (host_op ctx t ~value:0 ~payload_opt)

(* ---------- worlds ---------- *)

module World = struct
  module Fleet_world = Nectar_fleet.World

  type coll = t

  type t = {
    eng : Engine.t;
    net : Net.t;
    topo : Topology.t;
    tree : Tree.t;
    stacks : Stack.t array;
    colls : coll array;
  }

  let build ?(root = 0) ?combine spec =
    let topo = Topology.build spec in
    let tree = Tree.of_topology topo ~root in
    let nodes = Topology.node_count topo in
    (* The host-driven baseline is an n-to-1 incast at the root: every
       ack rides behind the root's serialized receive path, so the
       stop-and-wait RTO must scale with the fan-in or the fleet's
       retransmissions amplify the pile-up into timeouts. *)
    let rmp_rto = Sim_time.us (Stdlib.max 5_000 (250 * nodes)) in
    (* every stack shares one router, made on the first CAB's network *)
    let router = ref None in
    let stack rt =
      if Option.is_none !router then
        router :=
          Some
            (Nectar_route.Router.create ~policy:(Topology.policy topo)
               (Cab.network (Runtime.cab rt)));
      Stack.create rt ?router:!router ~rmp_rto ()
    in
    let w =
      Fleet_world.build ~hubs:(Topology.hub_count topo)
        ~trunks:(Topology.trunks topo)
        ~seats:(List.init nodes (Topology.attachment topo))
        ~stack ()
    in
    let colls = Array.map (fun s -> attach ?combine s ~tree) w.stacks in
    { eng = w.eng; net = w.net; topo; tree; stacks = w.stacks; colls }

  let run ?tracer w ~ops ~host =
    let n = Array.length w.colls in
    let root = Tree.root w.tree in
    let summary () = Summary.create ~keep_samples:true () in
    let b_lat = summary () and r_lat = summary () and c_lat = summary () in
    let barrier, reduce, bcast =
      if host then (host_barrier, host_reduce, host_bcast)
      else (barrier, reduce, bcast)
    in
    let expect_sum = n * (n + 1) / 2 in
    Array.iteri
      (fun i c ->
        ignore
          (Thread.create
             (Runtime.cab w.stacks.(i).Stack.rt)
             ~name:(Printf.sprintf "coll-app%d" i)
             (fun ctx ->
               let timed s f =
                 if i = root then begin
                   let t0 = Engine.now ctx.Ctx.eng in
                   f ();
                   Summary.add s (float_of_int (Engine.now ctx.Ctx.eng - t0))
                 end
                 else f ()
               in
               for it = 1 to ops do
                 (match tracer with
                 | Some tr when i = root && it = ops -> Trace.install tr
                 | _ -> ());
                 timed b_lat (fun () -> barrier ctx c);
                 timed r_lat (fun () ->
                     if reduce ctx c (i + 1) <> expect_sum then
                       failwith "coll: bad reduce");
                 let payload = if i = root then Some "go" else None in
                 timed c_lat (fun () ->
                     if bcast ctx c payload <> "go" then
                       failwith "coll: bad bcast")
               done)))
      w.colls;
    Engine.run w.eng;
    if Option.is_some tracer then Trace.uninstall ();
    (b_lat, r_lat, c_lat)
end
