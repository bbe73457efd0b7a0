module Make (P : Mp.Mp_intf.PRIMS) = struct
  type t = { state : int P.cell }

  let create () = { state = P.make 0 }

  let try_read_lock t =
    let s = P.get t.state in
    s >= 0 && P.compare_and_set t.state s (s + 1)

  let read_lock t =
    while not (try_read_lock t) do
      P.on_spin ();
      P.pause ()
    done

  let read_unlock t =
    let rec retry () =
      let s = P.get t.state in
      if s <= 0 then invalid_arg "Rw_spin_lock.read_unlock: no active reader";
      if not (P.compare_and_set t.state s (s - 1)) then begin
        P.pause ();
        retry ()
      end
    in
    retry ()

  let try_write_lock t = P.compare_and_set t.state 0 (-1)

  let write_lock t =
    while not (try_write_lock t) do
      P.on_spin ();
      P.pause ()
    done

  let write_unlock t =
    if not (P.compare_and_set t.state (-1) 0) then
      invalid_arg "Rw_spin_lock.write_unlock: not write-locked"

  let readers t = P.get t.state
end
