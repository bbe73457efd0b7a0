type t = { emit : Event.t -> unit; flush : unit -> unit }

let jsonl oc =
  (* One writer mutex: domains-backend emitters may share the channel, and
     interleaved [output_string] calls would tear lines. *)
  let m = Mutex.create () in
  {
    emit =
      (fun e ->
        let line = Event.to_json e in
        Mutex.lock m;
        output_string oc line;
        output_char oc '\n';
        Mutex.unlock m);
    flush = (fun () -> flush oc);
  }
