type t = {
  eng : Engine.t;
  cap : int;
  mutable fill : int;
  mutable high : int;
  room : Waitq.t;
  data : Waitq.t;
}

let create eng ~capacity ~name:_ =
  if capacity <= 0 then invalid_arg "Byte_fifo.create";
  {
    eng;
    cap = capacity;
    fill = 0;
    high = 0;
    room = Waitq.create eng;
    data = Waitq.create eng;
  }

let capacity t = t.cap
let level t = t.fill
let max_level t = t.high

let add t n =
  t.fill <- t.fill + n;
  if t.fill > t.high then t.high <- t.fill;
  ignore (Waitq.broadcast t.data)

let remove t n =
  t.fill <- t.fill - n;
  ignore (Waitq.broadcast t.room)

let push t n =
  if n < 0 || n > t.cap then invalid_arg "Byte_fifo.push";
  while t.fill + n > t.cap do
    Waitq.wait t.room
  done;
  add t n

let pop t n =
  if n < 0 then invalid_arg "Byte_fifo.pop";
  while t.fill < n do
    Waitq.wait t.data
  done;
  remove t n

let try_push t n =
  if n < 0 || n > t.cap then invalid_arg "Byte_fifo.try_push";
  if t.fill + n > t.cap then false
  else begin
    add t n;
    true
  end

let try_pop t n =
  if n < 0 then invalid_arg "Byte_fifo.try_pop";
  if t.fill < n then false
  else begin
    remove t n;
    true
  end
