(* Order statistics for the benchmark report. *)

(* Quantile [q] of a sample by linear interpolation between order
   statistics at rank q(n+1), clamped to the extremes — the "exclusive"
   method of Python's [statistics.quantiles], so the quartiles printed here
   are the ones a reader recomputing them from the results file gets. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let h = (q *. float_of_int (n + 1)) -. 1. in
      if h <= 0. then a.(0)
      else if h >= float_of_int (n - 1) then a.(n - 1)
      else
        let i = int_of_float h in
        a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* The highest of p99/p90 with at least ten samples beyond it, as
   (label, q); [None] when even p90 has fewer. *)
let tail_quantile n =
  if n >= 1000 then Some ("p99", 0.99)
  else if n >= 100 then Some ("p90", 0.90)
  else None

(* Quantile of an {!Obs.Histogram}, interpolated linearly inside the bucket
   holding the rank-q·count value.  [Histogram.quantile] returns bucket
   upper bounds, which move in 6.25% steps; interpolation keeps a shift of
   the distribution smaller than a bucket visible. *)
let hist_quantile h q =
  let total = Obs.Histogram.count h in
  if total = 0 then nan
  else
    (* a bucket starting at lo in [2^e, 2^(e+1)) spans 2^e / sub values *)
    let width lo =
      let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
      max 1 ((1 lsl msb lo 0) / Obs.Histogram.sub)
    in
    let rank = q *. float_of_int total in
    let rec go seen = function
      | [] -> float_of_int (Obs.Histogram.max_value h)
      | (lo, c) :: rest ->
          let seen' = seen + c in
          if float_of_int seen' >= rank then
            let frac = (rank -. float_of_int seen) /. float_of_int c in
            float_of_int lo +. (frac *. float_of_int (width lo))
          else go seen' rest
    in
    go 0 (Obs.Histogram.nonzero_buckets h)
