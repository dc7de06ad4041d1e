module Tbl = Nectar_util.Int_key.Tbl
let align = 4

exception Corrupt of string

let corrupt msg = raise (Corrupt ("Buffer_heap: " ^ msg))

type t = {
  uid : int;
  region : Nectar_util.Region.t;
  size : int;
  mutable free_list : (int * int) list; (* (offset, length), sorted, coalesced *)
  live : int Tbl.t; (* offset -> allocated length *)
  mutable allocated : int;
  mutable fault : (int -> bool) option; (* n -> inject allocation failure? *)
  mutable faulted : int;
}

(* Atomic for the same reason as Message.uid_counter: heaps are born in
   every partition's domain, uids must stay globally unique. *)
let uid_counter = Atomic.make 0

let create region =
  let size = Nectar_util.Region.size region in
  if size <= 0 then invalid_arg "Buffer_heap.create";
  let uid = 1 + Atomic.fetch_and_add uid_counter 1 in
  {
    uid;
    region;
    size;
    free_list = [ (0, size) ];
    live = Tbl.create 64;
    allocated = 0;
    fault = None;
    faulted = 0;
  }

let uid t = t.uid
let region t = t.region
let size t = t.size

let round n = (n + align - 1) / align * align

let alloc t n =
  if n <= 0 then invalid_arg "Buffer_heap.alloc";
  let n = round n in
  match t.fault with
  | Some f when f n ->
      t.faulted <- t.faulted + 1;
      None
  | _ ->
  let rec first_fit acc = function
    | [] -> None
    | (off, len) :: rest when len >= n ->
        let remainder = if len = n then [] else [ (off + n, len - n) ] in
        t.free_list <- List.rev_append acc (remainder @ rest);
        Tbl.replace t.live off n;
        t.allocated <- t.allocated + n;
        (* the region's one growth site: every block, live or freed, lies
           inside the backing from here on *)
        Nectar_util.Region.back t.region (off + n);
        Vet_hook.heap_alloc ~heap:t.uid ~off ~len:n;
        Some off
    | block :: rest -> first_fit (block :: acc) rest
  in
  first_fit [] t.free_list

let free t off =
  match Tbl.find_opt t.live off with
  | None ->
      Vet_hook.heap_free ~heap:t.uid ~off ~live:false;
      invalid_arg "Buffer_heap.free: not a live allocation"
  | Some len ->
      Vet_hook.heap_free ~heap:t.uid ~off ~live:true;
      Tbl.remove t.live off;
      t.allocated <- t.allocated - len;
      (* insert sorted, coalescing with neighbours *)
      let rec insert = function
        | [] -> [ (off, len) ]
        | (o, l) :: rest when o + l = off -> (
            (* merge with left neighbour, then maybe with its right *)
            match rest with
            | (o2, l2) :: rest2 when off + len = o2 ->
                (o, l + len + l2) :: rest2
            | _ -> (o, l + len) :: rest)
        | (o, l) :: rest when off + len = o -> (off, len + l) :: rest
        | (o, l) :: rest when off < o -> (off, len) :: (o, l) :: rest
        | block :: rest -> block :: insert rest
      in
      t.free_list <- insert t.free_list

let block_size t off =
  match Tbl.find_opt t.live off with
  | Some len -> len
  | None -> invalid_arg "Buffer_heap.block_size: not a live allocation"

let set_fault_hook t hook = t.fault <- hook
let failed_allocs t = t.faulted
let live_blocks t = Tbl.length t.live
let allocated_bytes t = t.allocated
let free_bytes t = t.size - t.allocated

let largest_free_block t =
  List.fold_left (fun acc (_, len) -> max acc len) 0 t.free_list

let check_invariants t =
  let regions =
    Tbl.fold (fun off len acc -> (off, len) :: acc) t.live []
    @ t.free_list
  in
  let sorted =
    List.sort
      (fun (o1, l1) (o2, l2) ->
        if o1 <> o2 then Int.compare o1 o2 else Int.compare l1 l2)
      regions
  in
  let rec walk expected = function
    | [] -> if expected <> t.size then corrupt "coverage gap at end"
    | (off, len) :: rest ->
        if off <> expected then corrupt "gap or overlap";
        if len <= 0 then corrupt "empty region";
        walk (off + len) rest
  in
  walk 0 sorted;
  (* free list must be sorted and fully coalesced *)
  let rec check_free = function
    | (o1, l1) :: ((o2, _) :: _ as rest) ->
        if o1 + l1 >= o2 then corrupt "free list not coalesced";
        check_free rest
    | _ -> ()
  in
  check_free t.free_list
