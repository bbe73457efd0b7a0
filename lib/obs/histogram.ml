(* Log-linear bucketing (HdrHistogram-style): values below [sub] = 2^sub_bits
   get exact unit buckets; above that, each power-of-two range is split into
   [sub] sub-buckets, so a bucket's width is at most lo/sub and any quantile
   read off a bucket boundary is within a 1/sub = 6.25% relative error of the
   exact order statistic.  The bucket array is sized for the full 62-bit
   non-negative int range, so a histogram is constant space (~1k cells)
   regardless of how many values are recorded. *)

let sub_bits = 4
let sub = 1 lsl sub_bits

(* Highest representable exponent: OCaml ints are 63-bit. *)
let max_exp = 62
let n_buckets = (max_exp - sub_bits + 1) * sub

(* floor log2, v > 0 *)
let msb v =
  let rec go v acc = if v = 0 then acc - 1 else go (v lsr 1) (acc + 1) in
  go v 0

let index_of v =
  if v < sub then v
  else
    let e = msb v in
    let top = v lsr (e - sub_bits) in
    (* top is in [sub, 2*sub); blocks are contiguous: e = sub_bits yields
       indexes [sub, 2*sub), e = sub_bits+1 yields [2*sub, 3*sub), ... *)
    ((e - sub_bits) * sub) + top

(* Inclusive [lo, hi] of values mapping to bucket [i]. *)
let bounds_of i =
  if i < sub then (i, i)
  else
    let g = (i / sub) - 1 in
    let top = i - (g * sub) in
    let lo = top lsl g in
    (lo, lo + (1 lsl g) - 1)

type t = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  mx : int Atomic.t; (* -1 when empty *)
}

let create () =
  {
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
    mx = Atomic.make (-1);
  }

let rec max_gauge cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then max_gauge cell v

let add t v =
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.buckets.(index_of v) 1);
  ignore (Atomic.fetch_and_add t.count 1);
  ignore (Atomic.fetch_and_add t.sum v);
  max_gauge t.mx v

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum
let max_value t = if count t = 0 then 0 else Atomic.get t.mx
let mean t = if count t = 0 then 0. else float_of_int (sum t) /. float_of_int (count t)

let reset t =
  Array.iter (fun c -> Atomic.set c 0) t.buckets;
  Atomic.set t.count 0;
  Atomic.set t.sum 0;
  Atomic.set t.mx (-1)

(* Rank of quantile q among n recorded values: the smallest bucket whose
   cumulative count reaches ceil(q*n) (clamped to [1,n]).  Returned value is
   the bucket's inclusive upper bound, clamped to the recorded max, so the
   exact order statistic lies at or below it, within the bucket. *)
let quantile t q =
  let n = count t in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    let acc = ref 0 and i = ref 0 and found = ref (n_buckets - 1) in
    (try
       while !i < n_buckets do
         acc := !acc + Atomic.get t.buckets.(!i);
         if !acc >= rank then begin
           found := !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    let hi = snd (bounds_of !found) in
    let mx = max_value t in
    if hi > mx then mx else hi
  end

let nonzero_buckets t =
  let out = ref [] in
  for i = n_buckets - 1 downto 0 do
    let n = Atomic.get t.buckets.(i) in
    if n > 0 then out := (fst (bounds_of i), n) :: !out
  done;
  !out
