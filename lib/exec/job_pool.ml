(* One slot per job; distinct jobs write distinct slots, and Domain.join
   publishes every worker's writes before the caller reads, so the merge
   is race-free without locks. *)
type 'b slot = Empty | Ok_ of 'b | Exn of exn

let run_job f x = match f x with v -> Ok_ v | exception e -> Exn e

let map ~jobs f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let results = Array.make n Empty in
    (* The caller and the spawned workers claim jobs from one shared
       next-index; each index is claimed exactly once and lands in its own
       slot. *)
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- run_job f inputs.(i);
        worker ()
      end
    in
    let domains =
      Array.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join domains;
    Array.to_list
      (Array.map
         (function Ok_ v -> v | Exn e -> raise e | Empty -> assert false)
         results)
  end
