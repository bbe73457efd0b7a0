(** Printable 64-bit schedule seeds (splitmix64).

    Random schedule exploration derives every per-run seed from one base
    seed, and a failing run's seed is printed in a form [mp_repro check
    --seed] accepts — with [--runs 1] it replays as run 0, so a CI fuzzing
    failure replays locally from its log line alone. *)

type t = int64

val default : t
(** The fixed base seed used when none is supplied (deterministic CI). *)

val next : t ref -> int64
(** Advance a splitmix64 state and return the next 64-bit draw. *)

val derive : t -> int -> t
(** [derive base i]: an independent seed for the [i]-th run of a batch.
    [derive base 0 = base], so a printed seed replays as run 0. *)

val bounded : t ref -> int -> int
(** [bounded state n]: a draw in [0, n) ([n > 0]). *)

val hash2 : t -> int -> int64
(** Stateless mix of a seed and a counter — used for fault-injection
    decisions, so the k-th injection site keeps its outcome even when
    shrinking perturbs the surrounding schedule. *)

val to_string : t -> string
(** ["0x%016Lx"] — the printable form accepted by {!of_string}. *)

val of_string : string -> t
(** Accepts the [to_string] form and plain decimal.
    @raise Failure on anything else. *)
