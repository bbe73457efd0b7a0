type 'a t = {
  mutable buf : 'a array;
  mutable head : int; (* index of front element *)
  mutable size : int;
}

let create () = { buf = [||]; head = 0; size = 0 }
let length d = d.size
let is_empty d = d.size = 0
let capacity d = Array.length d.buf

let ensure d x =
  if capacity d = 0 then begin
    d.buf <- Array.make 8 x;
    d.head <- 0
  end
  else if d.size = capacity d then begin
    let buf = Array.make (2 * d.size) x in
    for i = 0 to d.size - 1 do
      buf.(i) <- d.buf.((d.head + i) mod capacity d)
    done;
    d.buf <- buf;
    d.head <- 0
  end

let push_front d x =
  ensure d x;
  d.head <- (d.head + capacity d - 1) mod capacity d;
  d.buf.(d.head) <- x;
  d.size <- d.size + 1

let push_back d x =
  ensure d x;
  d.buf.((d.head + d.size) mod capacity d) <- x;
  d.size <- d.size + 1

let pop_front d =
  if d.size = 0 then raise Queue_intf.Empty;
  let x = d.buf.(d.head) in
  d.head <- (d.head + 1) mod capacity d;
  d.size <- d.size - 1;
  x

let pop_back d =
  if d.size = 0 then raise Queue_intf.Empty;
  let x = d.buf.((d.head + d.size - 1) mod capacity d) in
  d.size <- d.size - 1;
  x

let pop_front_opt d =
  match pop_front d with x -> Some x | exception Queue_intf.Empty -> None

let pop_back_opt d =
  match pop_back d with x -> Some x | exception Queue_intf.Empty -> None
