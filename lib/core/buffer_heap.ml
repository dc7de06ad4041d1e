let align = 4

exception Corrupt of string

let corrupt msg = raise (Corrupt ("Buffer_heap: " ^ msg))

(* A block list: (offset, length) pairs sorted by offset in two int
   arrays, shifted in place.  A CAB holds tens of blocks, so a shift
   moves a few words, and an allocation or a free allocates nothing once
   the arrays have grown to the heap's working size. *)
type blocks = { mutable off : int array; mutable len : int array; mutable n : int }

(* literals, not [Array.make]: built inline, with no C call per heap *)
let blocks () = { off = [| 0; 0; 0; 0 |]; len = [| 0; 0; 0; 0 |]; n = 0 }

(* Open a gap at index [i] (the caller fills it), or close the one there.
   Loops, not [Array.blit]: the shifts are a few words, cheaper than a C
   call each. *)
let open_at b i =
  if b.n = Array.length b.off then begin
    let grow a =
      let a' = Array.make (2 * b.n) 0 in
      Array.blit a 0 a' 0 b.n;
      a'
    in
    b.off <- grow b.off;
    b.len <- grow b.len
  end;
  for k = b.n downto i + 1 do
    Array.unsafe_set b.off k (Array.unsafe_get b.off (k - 1));
    Array.unsafe_set b.len k (Array.unsafe_get b.len (k - 1))
  done;
  b.n <- b.n + 1

let close_at b i =
  for k = i to b.n - 2 do
    Array.unsafe_set b.off k (Array.unsafe_get b.off (k + 1));
    Array.unsafe_set b.len k (Array.unsafe_get b.len (k + 1))
  done;
  b.n <- b.n - 1

let set b i off len =
  b.off.(i) <- off;
  b.len.(i) <- len

(* The index of the first block at or after [off] ([n] if none). *)
let index b off =
  let lo = ref 0 and hi = ref b.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get b.off mid < off then lo := mid + 1 else hi := mid
  done;
  !lo

let to_list b = List.init b.n (fun i -> (b.off.(i), b.len.(i)))

type t = {
  uid : int;
  region : Nectar_util.Region.t;
  size : int;
  free_list : blocks; (* sorted, coalesced *)
  live : blocks;
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
    free_list = { off = [| 0; 0; 0; 0 |]; len = [| size; 0; 0; 0 |]; n = 1 };
    live = blocks ();
    allocated = 0;
    fault = None;
    faulted = 0;
  }

let uid t = t.uid
let region t = t.region
let size t = t.size

let round n = (n + align - 1) / align * align

(* The live block at [off], or [-1]. *)
let live_index t off =
  let i = index t.live off in
  if i < t.live.n && t.live.off.(i) = off then i else -1

(* The first free block of at least [n] bytes, or [-1]. *)
let rec first_fit free n i =
  if i = free.n then -1
  else if Array.unsafe_get free.len i >= n then i
  else first_fit free n (i + 1)

let alloc_offset t n =
  if n <= 0 then invalid_arg "Buffer_heap.alloc";
  let n = round n in
  match t.fault with
  | Some f when f n ->
      t.faulted <- t.faulted + 1;
      -1
  | _ ->
      let free = t.free_list in
      let i = first_fit free n 0 in
      if i < 0 then -1
      else begin
        let off = free.off.(i) in
        if free.len.(i) = n then close_at free i
        else set free i (off + n) (free.len.(i) - n);
        let j = index t.live off in
        open_at t.live j;
        set t.live j off n;
        t.allocated <- t.allocated + n;
        (* the region's one growth site: every block, live or freed, lies
           inside the backing from here on *)
        Nectar_util.Region.back t.region (off + n);
        Vet_hook.heap_alloc ~heap:t.uid ~off ~len:n;
        off
      end

let alloc t n =
  let off = alloc_offset t n in
  if off < 0 then None else Some off

(* Insert the block ([off], [len]) into the free list at its place,
   coalescing with its neighbours. *)
let rec insert_free free off len i =
  if i = free.n then begin
    open_at free i;
    set free i off len
  end
  else begin
    let o = free.off.(i) and l = free.len.(i) in
    if o + l = off then begin
      (* merge with the left neighbour, then maybe with its right *)
      if i + 1 < free.n && off + len = free.off.(i + 1) then begin
        free.len.(i) <- l + len + free.len.(i + 1);
        close_at free (i + 1)
      end
      else free.len.(i) <- l + len
    end
    else if off + len = o then set free i off (len + l)
    else if off < o then begin
      open_at free i;
      set free i off len
    end
    else insert_free free off len (i + 1)
  end

let free t off =
  let i = live_index t off in
  if i < 0 then begin
    Vet_hook.heap_free ~heap:t.uid ~off ~live:false;
    invalid_arg "Buffer_heap.free: not a live allocation"
  end
  else begin
    let len = t.live.len.(i) in
    Vet_hook.heap_free ~heap:t.uid ~off ~live:true;
    close_at t.live i;
    t.allocated <- t.allocated - len;
    insert_free t.free_list off len 0
  end

let block_size t off =
  let i = live_index t off in
  if i >= 0 then t.live.len.(i)
  else invalid_arg "Buffer_heap.block_size: not a live allocation"

let set_fault_hook t hook = t.fault <- hook
let failed_allocs t = t.faulted
let live_blocks t = t.live.n
let allocated_bytes t = t.allocated
let free_bytes t = t.size - t.allocated

let largest_free_block t =
  List.fold_left (fun acc (_, len) -> max acc len) 0 (to_list t.free_list)

let check_invariants t =
  let free_list = to_list t.free_list in
  let regions = to_list t.live @ free_list in
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
  check_free free_list
