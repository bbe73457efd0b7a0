(** Plain-text rendering of tables and speedup series for the benchmark
    harness (everything prints to a [Format.formatter]). *)

val table :
  Format.formatter -> header:string list -> rows:string list list -> unit
(** Column-aligned table with a header rule. *)

val section : Format.formatter -> string -> unit
(** Banner for an experiment section. *)

val series :
  Format.formatter ->
  xlabel:string ->
  xs:int list ->
  rows:(string * float list) list ->
  unit
(** A named-series table: one column per x value, one row per series
    (e.g. Figure 6: columns are proc counts, rows are benchmarks). *)

val chart :
  Format.formatter -> xs:int list -> rows:(string * float list) list -> unit
(** Crude ASCII rendering of the same series (speedup vs procs), 16 rows
    high, one letter per series, linear ideal shown as [.]. *)
