type state = Writing | Queued | Reading | Freed

(* [off]/[len] move as layers strip and push headers, [state] and the
   owner callbacks move with ownership, and [refs] counts buffer views;
   the rest is fixed for the message's lifetime. *)
type t = {
  uid : int;
  mem : Bytes.t;
  buf_off : int;
  buf_len : int;
  mutable off : int;
  mutable len : int;
  mutable state : state;
  mutable refs : int;
  free_buffer : unit -> unit;
  mutable on_end_get : Ctx.t -> t -> unit;
  mutable on_disown : t -> unit;
}

(* Atomic: messages are created inside every partition's domain under
   the parallel engine; uids stay globally unique (the vet checkers key
   on them) while the single-domain sequence is unchanged. *)
let uid_counter = Atomic.make 0

let noop_end_get : Ctx.t -> t -> unit = fun _ _ -> ()
let noop_disown : t -> unit = fun _ -> ()

let make ~mem ~buf_off ~buf_len ~len ~free_buffer () =
  if len < 0 || len > buf_len then invalid_arg "Message.make";
  {
    uid = 1 + Atomic.fetch_and_add uid_counter 1;
    mem;
    buf_off;
    buf_len;
    off = buf_off;
    len;
    state = Writing;
    refs = 1;
    free_buffer;
    on_end_get = noop_end_get;
    on_disown = noop_disown;
  }

(* Reference counting covers the *buffer*, not the two-phase mailbox state:
   the owner's reference (held from [make]) is dropped by the mailbox free
   paths, and the transmit path / slices take extra references so the heap
   block outlives every in-flight view of it.  All refcount traffic is
   bookkeeping on the simulated CAB — it charges no simulated time. *)

let retain t =
  if t.refs <= 0 then begin
    if Vet_hook.installed () then Vet_hook.msg_retain ~uid:t.uid ~refs:t.refs
    else invalid_arg "Message.retain: message buffer already freed"
  end
  else begin
    t.refs <- t.refs + 1;
    Vet_hook.msg_retain ~uid:t.uid ~refs:t.refs
  end

let release t =
  if t.refs <= 0 then begin
    if Vet_hook.installed () then
      Vet_hook.msg_release ~uid:t.uid ~refs:t.refs ~live:false
    else invalid_arg "Message.release: message buffer already freed"
  end
  else begin
    t.refs <- t.refs - 1;
    Vet_hook.msg_release ~uid:t.uid ~refs:t.refs ~live:true;
    if t.refs = 0 then t.free_buffer ()
  end

let refs t = t.refs

let length t = t.len

let state_name = function
  | Writing -> "writing"
  | Queued -> "queued"
  | Reading -> "reading"
  | Freed -> "freed"

let adjust_head t n =
  if n < 0 || n > t.len then invalid_arg "Message.adjust_head";
  t.off <- t.off + n;
  t.len <- t.len - n

let adjust_tail t n =
  if n < 0 || n > t.len then invalid_arg "Message.adjust_tail";
  t.len <- t.len - n

let push_head t n =
  if n < 0 || t.off - n < t.buf_off then invalid_arg "Message.push_head";
  t.off <- t.off - n;
  t.len <- t.len + n

let bounds t pos n =
  (* A message's data may only be touched while the caller holds it
     (writing or reading); access while queued is the use-after-enqueue
     bug on the zero-copy path, access while freed a use-after-free. *)
  (if Vet_hook.installed () then
     match t.state with
     | Writing | Reading -> ()
     | Queued | Freed ->
         Vet_hook.msg_access ~uid:t.uid ~state:(state_name t.state)
           ~op:"data access");
  if pos < 0 || n < 0 || pos + n > t.len then
    invalid_arg "Message: access outside message data"

let get_u8 t i =
  bounds t i 1;
  Nectar_util.Byte_view.get_u8 t.mem (t.off + i)

let set_u8 t i v =
  bounds t i 1;
  Nectar_util.Byte_view.set_u8 t.mem (t.off + i) v

let get_u16 t i =
  bounds t i 2;
  Nectar_util.Byte_view.get_u16 t.mem (t.off + i)

let set_u16 t i v =
  bounds t i 2;
  Nectar_util.Byte_view.set_u16 t.mem (t.off + i) v

let get_u32 t i =
  bounds t i 4;
  Nectar_util.Byte_view.get_u32 t.mem (t.off + i)

let set_u32 t i v =
  bounds t i 4;
  Nectar_util.Byte_view.set_u32 t.mem (t.off + i) v

let write_string t pos s =
  bounds t pos (String.length s);
  Bytes.blit_string s 0 t.mem (t.off + pos) (String.length s)

let read_string t ~pos ~len =
  bounds t pos len;
  Bytes.sub_string t.mem (t.off + pos) len

let to_string t = read_string t ~pos:0 ~len:t.len

let blit_to t ~src_pos ~dst ~dst_pos ~len =
  bounds t src_pos len;
  Bytes.blit t.mem (t.off + src_pos) dst dst_pos len

let blit_from t ~dst_pos ~src ~src_pos ~len =
  bounds t dst_pos len;
  Bytes.blit src src_pos t.mem (t.off + dst_pos) len

(* ---------- refcounted slices ---------- *)

module Slice = struct
  type msg = t

  type t = {
    suid : int;
    src : msg;
    soff : int; (* absolute offset into src.mem, fixed at creation *)
    slen : int;
    mutable live : bool;
  }

  let suid_counter = Atomic.make 0

  let check s op =
    if not s.live then begin
      if Vet_hook.installed () then Vet_hook.slice_access ~suid:s.suid ~op
      else invalid_arg ("Message.Slice: " ^ op ^ " after release")
    end

  let of_abs (src : msg) ~soff ~slen =
    retain src;
    let suid = 1 + Atomic.fetch_and_add suid_counter 1 in
    let s = { suid; src; soff; slen; live = true } in
    Vet_hook.slice_make ~suid:s.suid ~uid:src.uid ~off:soff ~len:slen;
    s

  let make (m : msg) ~pos ~len =
    if pos < 0 || len < 0 || pos + len > m.len then
      invalid_arg "Message.slice: outside message data";
    of_abs m ~soff:(m.off + pos) ~slen:len

  let sub s ~pos ~len =
    check s "sub";
    if pos < 0 || len < 0 || pos + len > s.slen then
      invalid_arg "Message.Slice.sub: outside slice";
    of_abs s.src ~soff:(s.soff + pos) ~slen:len

  let release s =
    if not s.live then begin
      if Vet_hook.installed () then Vet_hook.slice_release ~suid:s.suid ~live:false
      else invalid_arg "Message.Slice.release: already released"
    end
    else begin
      s.live <- false;
      Vet_hook.slice_release ~suid:s.suid ~live:true;
      release s.src
    end

  let live s = s.live
  let length s = s.slen
  let message s = s.src

  (* Accessors address the slice's fixed window, not the (possibly since
     adjusted) message view, so a slice stays valid across the owner's
     header push/strip and even past its dispose — the retained reference
     keeps the bytes. *)

  let srange s pos n op =
    check s op;
    if pos < 0 || n < 0 || pos + n > s.slen then
      invalid_arg "Message.Slice: access outside slice"

  let get_u8 s i =
    srange s i 1 "get_u8";
    Nectar_util.Byte_view.get_u8 s.src.mem (s.soff + i)

  let read_string s ~pos ~len =
    srange s pos len "read_string";
    Bytes.sub_string s.src.mem (s.soff + pos) len

  let blit_to s ~src_pos ~dst ~dst_pos ~len =
    srange s src_pos len "blit_to";
    Bytes.blit s.src.mem (s.soff + src_pos) dst dst_pos len

  let extent s =
    check s "extent";
    (s.src.mem, s.soff, s.slen)
end

let slice = Slice.make
