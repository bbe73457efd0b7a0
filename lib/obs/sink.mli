(** Pluggable event sinks.

    A sink is where enabled telemetry events go besides the per-stream
    rings ({!Telemetry.enable_memory}): a JSONL stream ([jsonl]) or any
    caller-built record, such as a counting sink. *)

type t = { emit : Event.t -> unit; flush : unit -> unit }

val jsonl : out_channel -> t
(** One JSON object per line ({!Event.to_json}).  Writes are serialized
    with an internal mutex so concurrent domains cannot tear lines; the
    caller closes the channel after [flush]. *)
