(* Spans recorded by the benchmark around its own calls into each layer:
   name, start, end, parent span and the id of the cell or request group.
   Recording is off except in traced passes; spans stay in memory and are
   appended to a JSONL file when the pass ends. *)

type span = {
  id : int;
  name : string;
  group : string;
  parent : int option;
  start : float;
  stop : float;
}

let on = ref false
let origin = ref 0.
let next = ref 0
let stack : int list ref = ref []
let finished : span list ref = ref []

let enable () =
  on := true;
  origin := Unix.gettimeofday ()

(* Open a span under the innermost open one; the returned function closes
   it.  Used directly for the pass-level spans, whose extent is not one
   lexical call. *)
let open_span ?(group = "") name =
  if not !on then fun () -> ()
  else begin
    let id = !next in
    incr next;
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    let start = Unix.gettimeofday () -. !origin in
    stack := id :: !stack;
    fun () ->
      stack := List.filter (( <> ) id) !stack;
      finished :=
        { id; name; group; parent; start; stop = Unix.gettimeofday () -. !origin }
        :: !finished
  end

let with_span ?group name f = Fun.protect ~finally:(open_span ?group name) f

let write ~path ~pass =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("pass", Json.Num (float_of_int pass));
                ("span", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("start_s", Json.Num s.start);
                ("end_s", Json.Num s.stop);
                ( "parent",
                  match s.parent with
                  | Some p -> Json.Num (float_of_int p)
                  | None -> Json.Null );
                ("id", Json.Str s.group);
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.id b.id) !finished);
  close_out oc
