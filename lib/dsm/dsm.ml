open Nectar_core
open Nectar_proto
open Nectar_sim

let pager_port = 950
let lock_port = 951
let copy_port = 952

type page_state = Invalid | Read_shared | Writable

(* Per-participant state; the [node] handle pairs it with the region so no
   recursive back-pointer is needed at construction time. *)
type node_state = {
  stack : Stack.t;
  (* local cache *)
  frames : int array; (* heap offset of the local frame; -1 = none *)
  states : page_state array;
  (* directory (meaningful for pages homed here) *)
  dir_mutex : Lock.Mutex.t;
  owner : int array; (* owning node index *)
  copyset : (int, unit) Hashtbl.t array;
  master : int array; (* home's master frame offset *)
  (* lock service *)
  locks : bool array;
  mutable rf : int;
  mutable wf : int;
  mutable invs : int;
}

type t = { parts : node_state array; n_pages : int; page_sz : int }

type node = { dsm : t; idx : int }

let page_bytes t = t.page_sz
let pages t = t.n_pages
let node t i = { dsm = t; idx = i }
let home t page = page mod Array.length t.parts
let st n = n.dsm.parts.(n.idx)
let peer n i = { dsm = n.dsm; idx = i }
let cab_of n = Stack.node_id (st n).stack
(* The CAB memory's current backing, for immediate use.  [frame] may
   allocate, and allocating may grow the region and replace its bytes, so
   callers take the frame offset first and the bytes after it. *)
let bytes n = Nectar_util.Region.bytes (Runtime.mem (st n).stack.Stack.rt)

let alloc_frame_of stack page_sz =
  match Buffer_heap.alloc (Runtime.heap stack.Stack.rt) page_sz with
  | Some off -> off
  | None -> failwith "Dsm: CAB data memory exhausted"

let frame n page =
  let s = st n in
  if s.frames.(page) < 0 then
    s.frames.(page) <- alloc_frame_of s.stack n.dsm.page_sz;
  s.frames.(page)

let meter_app n len =
  Nectar_util.Copy_meter.record
    ~owner:(Nectar_cab.Cab.name (Runtime.cab (st n).stack.Stack.rt))
    Nectar_util.Copy_meter.App len

let frame_contents n page =
  meter_app n n.dsm.page_sz;
  let off = frame n page in
  Bytes.sub_string (bytes n) off n.dsm.page_sz

let install n page data =
  meter_app n n.dsm.page_sz;
  let off = frame n page in
  Bytes.blit_string data 0 (bytes n) off n.dsm.page_sz

(* ---------- copy service: never blocks, served as an upcall ---------- *)

let copy_service n _ctx request =
  let s = st n in
  let op = request.[0] in
  let page = int_of_string (String.sub request 2 (String.length request - 2)) in
  if op = 'I' then begin
    (* invalidate *)
    s.states.(page) <- Invalid;
    s.invs <- s.invs + 1;
    "ok"
  end
  else if op = 'D' then begin
    (* downgrade write -> read, returning the current contents *)
    let data = frame_contents n page in
    s.states.(page) <- Read_shared;
    data
  end
  else begin
    (* 'F': flush and invalidate *)
    let data = frame_contents n page in
    s.states.(page) <- Invalid;
    s.invs <- s.invs + 1;
    data
  end

(* ---------- directory operations (run on the home node) ---------- *)

(* Ask node [target]'s copy service to perform [op] on [page]; direct local
   call when the target is this node. *)
let copy_request ctx ~from target ~op ~page =
  if target.idx = from.idx then
    copy_service target ctx (Printf.sprintf "%c %d" op page)
  else
    Reqresp.call ctx (st from).stack.Stack.reqresp ~dst_cab:(cab_of target)
      ~dst_port:copy_port
      (Printf.sprintf "%c %d" op page)

(* Serve a read fault for [requester] at this (home) node. *)
let dir_read ctx home_node ~page ~requester =
  let hs = st home_node in
  Lock.Mutex.with_lock ctx hs.dir_mutex (fun () ->
      let o = hs.owner.(page) in
      (* an exclusive writer must be downgraded and its data captured *)
      if o >= 0 && not (Hashtbl.mem hs.copyset.(page) o) then begin
        let data =
          copy_request ctx ~from:home_node (peer home_node o) ~op:'D' ~page
        in
        Bytes.blit_string data 0 (bytes home_node) hs.master.(page)
          home_node.dsm.page_sz;
        Hashtbl.replace hs.copyset.(page) o ()
      end;
      Hashtbl.replace hs.copyset.(page) requester ();
      hs.owner.(page) <- -1 (* no exclusive owner while shared *);
      Bytes.sub_string (bytes home_node) hs.master.(page) home_node.dsm.page_sz)

(* Serve a write fault: invalidate all copies, hand exclusive ownership to
   [requester]. *)
let dir_write ctx home_node ~page ~requester =
  let hs = st home_node in
  Lock.Mutex.with_lock ctx hs.dir_mutex (fun () ->
      let o = hs.owner.(page) in
      if o >= 0 && o <> requester && not (Hashtbl.mem hs.copyset.(page) o)
      then begin
        let data =
          copy_request ctx ~from:home_node (peer home_node o) ~op:'F' ~page
        in
        Bytes.blit_string data 0 (bytes home_node) hs.master.(page)
          home_node.dsm.page_sz
      end;
      Hashtbl.iter
        (fun c () ->
          if c <> requester then
            ignore
              (copy_request ctx ~from:home_node (peer home_node c) ~op:'I'
                 ~page))
        hs.copyset.(page);
      Hashtbl.reset hs.copyset.(page);
      hs.owner.(page) <- requester;
      Bytes.sub_string (bytes home_node) hs.master.(page) home_node.dsm.page_sz)

let pager n ctx request =
  Scanf.sscanf request "%c %d %d" (fun op page requester ->
      if op = 'R' then dir_read ctx n ~page ~requester
      else dir_write ctx n ~page ~requester)

(* ---------- faults ---------- *)

let fault ctx n ~page ~write =
  let s = st n in
  let h = home n.dsm page in
  let data =
    if h = n.idx then
      (* the home faults on its own page: manipulate the directory locally *)
      if write then dir_write ctx n ~page ~requester:n.idx
      else dir_read ctx n ~page ~requester:n.idx
    else
      Reqresp.call ctx s.stack.Stack.reqresp
        ~dst_cab:(cab_of (peer n h))
        ~dst_port:pager_port
        (Printf.sprintf "%c %d %d" (if write then 'W' else 'R') page n.idx)
  in
  install n page data;
  s.states.(page) <- (if write then Writable else Read_shared);
  if write then s.wf <- s.wf + 1 else s.rf <- s.rf + 1

(* The home's master copy *is* the authoritative version while it has no
   exclusive owner, so a home-side write must also go through dir_write —
   handled in [fault].  After a fault the local frame is current; keep the
   home's master in sync when the home itself is the writer. *)
let sync_home_master n page =
  let h = home n.dsm page in
  if h = n.idx then begin
    let off = frame n page in
    let b = bytes n in
    Bytes.blit b off b (st n).master.(page) n.dsm.page_sz
  end

let check_range n ~addr ~len =
  if len < 0 || addr < 0 || addr + len > n.dsm.n_pages * n.dsm.page_sz then
    invalid_arg "Dsm: address out of range";
  let page = addr / n.dsm.page_sz in
  if (addr + len - 1) / n.dsm.page_sz <> page && len > 0 then
    invalid_arg "Dsm: access crosses a page boundary";
  page

let read (ctx : Ctx.t) n ~addr ~len =
  let page = check_range n ~addr ~len in
  (match (st n).states.(page) with
  | Invalid -> fault ctx n ~page ~write:false
  | Read_shared | Writable -> ());
  meter_app n len;
  let off = frame n page + (addr mod n.dsm.page_sz) in
  let s = Bytes.sub_string (bytes n) off len in
  ctx.work (Nectar_cab.Costs.cab_cycles (2 * len));
  s

let write (ctx : Ctx.t) n ~addr data =
  let len = String.length data in
  let page = check_range n ~addr ~len in
  (match (st n).states.(page) with
  | Writable -> ()
  | Invalid | Read_shared -> fault ctx n ~page ~write:true);
  meter_app n len;
  let off = frame n page + (addr mod n.dsm.page_sz) in
  Bytes.blit_string data 0 (bytes n) off len;
  sync_home_master n page;
  ctx.work (Nectar_cab.Costs.cab_cycles (2 * len))

(* ---------- region-wide locks ---------- *)

let lock_service n _ctx request =
  let s = st n in
  let op = request.[0] in
  let k = int_of_string (String.sub request 2 (String.length request - 2)) in
  if op = 'T' then
    if s.locks.(k) then "n"
    else begin
      s.locks.(k) <- true;
      "y"
    end
  else begin
    s.locks.(k) <- false;
    "y"
  end

let lock_request ctx n target ~op ~k =
  if target = n.idx then lock_service n ctx (Printf.sprintf "%c %d" op k)
  else
    Reqresp.call ctx (st n).stack.Stack.reqresp
      ~dst_cab:(cab_of (peer n target))
      ~dst_port:lock_port
      (Printf.sprintf "%c %d" op k)

let with_lock ctx n ~lock f =
  let target = lock mod Array.length n.dsm.parts in
  let rec acquire backoff =
    if lock_request ctx n target ~op:'T' ~k:lock = "y" then ()
    else begin
      Engine.sleep ctx.Ctx.eng (Sim_time.us backoff);
      acquire (min 2000 (backoff * 2))
    end
  in
  acquire 100;
  match f () with
  | v ->
      ignore (lock_request ctx n target ~op:'R' ~k:lock);
      v
  | exception e ->
      ignore (lock_request ctx n target ~op:'R' ~k:lock);
      raise e

(* ---------- construction ---------- *)

let create stacks ~pages ~page_bytes =
  if stacks = [] then invalid_arg "Dsm.create: no nodes";
  let stacks = Array.of_list stacks in
  let t =
    {
      parts =
        Array.map
          (fun stack ->
            {
              stack;
              frames = Array.make pages (-1);
              states = Array.make pages Invalid;
              dir_mutex =
                Lock.Mutex.create
                  (Runtime.engine stack.Stack.rt)
                  ~name:"dsm-dir";
              owner = Array.make pages (-1);
              copyset = Array.init pages (fun _ -> Hashtbl.create 4);
              master = Array.make pages (-1);
              locks = Array.make 256 false;
              rf = 0;
              wf = 0;
              invs = 0;
            })
          stacks;
      n_pages = pages;
      page_sz = page_bytes;
    }
  in
  Array.iteri
    (fun idx s ->
      let n = { dsm = t; idx } in
      (* allocate master frames for homed pages, and wire the services *)
      for p = 0 to pages - 1 do
        if home t p = idx then begin
          s.master.(p) <- alloc_frame_of s.stack page_bytes;
          Bytes.fill (bytes n) s.master.(p) page_bytes '\000';
          s.owner.(p) <- idx;
          Hashtbl.replace s.copyset.(p) idx ()
        end
      done;
      Reqresp.register_server s.stack.Stack.reqresp ~port:pager_port
        ~mode:Reqresp.Thread_server (pager n);
      Reqresp.register_server s.stack.Stack.reqresp ~port:copy_port
        ~mode:Reqresp.Upcall_server (copy_service n);
      Reqresp.register_server s.stack.Stack.reqresp ~port:lock_port
        ~mode:Reqresp.Upcall_server (lock_service n))
    t.parts;
  t

let read_faults n = (st n).rf
let write_faults n = (st n).wf
let invalidations_received n = (st n).invs


