type t = {
  streams : int;
  stream_of : unit -> int;
  now_ts : unit -> int;
  counters : Counters.t;
  mutable on : bool;
  mutable rings : Event.t Ring.t array; (* [||] unless [enable_memory] is up *)
  mutable sink : Sink.t option;
}

let create ?(streams = 1) ~stream_of ~now_ts () =
  if streams <= 0 then invalid_arg "Obs.Telemetry.create";
  {
    streams;
    stream_of;
    now_ts;
    counters = Counters.create ();
    on = false;
    rings = [||];
    sink = None;
  }

let enabled t = t.on
let ts t = t.now_ts ()
let counters t = t.counters

let enable_memory ?(capacity = 4096) t =
  if Array.length t.rings = 0 then
    t.rings <- Array.init t.streams (fun _ -> Ring.create ~capacity);
  t.on <- true

let attach_sink t sink =
  t.sink <- Some sink;
  t.on <- true

let disable t =
  (match t.sink with Some s -> s.Sink.flush () | None -> ());
  t.sink <- None;
  t.rings <- [||];
  t.on <- false

let emit t e =
  if t.on then begin
    (if Array.length t.rings > 0 then begin
       let s = t.stream_of () in
       let s = if s < 0 || s >= t.streams then 0 else s in
       Ring.record t.rings.(s) e
     end);
    match t.sink with Some s -> s.Sink.emit e | None -> ()
  end

let ring t i =
  if i >= 0 && i < Array.length t.rings then Some t.rings.(i) else None

let events t =
  Array.to_list t.rings
  |> List.concat_map Ring.items
  |> List.stable_sort (fun a b -> compare (Event.clock_of a) (Event.clock_of b))

let total_recorded t =
  Array.fold_left (fun acc r -> acc + Ring.total_recorded r) 0 t.rings
