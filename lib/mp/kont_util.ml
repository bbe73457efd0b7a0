(* The thunk runs at the base of its own fiber: its return reaches
   [on_return] and an exception it raises reaches the trampoline's
   [on_exn], as any fiber's does. *)
let cont_of_thunk ~on_return f =
  Engine.suspend (fun ret ->
      Engine.Start
        (fun () ->
          (* Hand a resume point back to the caller; the code after it
             runs only when that point is resumed. *)
          Engine.suspend (fun c -> Engine.Resume (ret, c));
          f ();
          on_return ();
          (* [on_return] is expected to transfer control away (release_proc
             or dispatch); reaching here is a client protocol error. *)
          failwith "Kont_util.cont_of_thunk: on_return returned"))

let unit_cont_of k v =
  cont_of_thunk ~on_return:(fun () -> ()) (fun () -> Engine.throw k v)

let protect ~finally f =
  match f () with
  | v ->
      finally ();
      v
  | exception (Engine.Abandoned as e) -> raise e
  | exception e ->
      finally ();
      raise e
