module Make (P : Mp.Mp_intf.PRIMS) = struct
  type node = { busy : bool P.cell }

  type mutex_lock = {
    tail : node P.cell;
    (* The holder's own node; written after acquisition, read by [unlock].
       Only the holder touches it between acquire and release. *)
    holder : node P.cell;
  }

  let holder_must_unlock = true

  let mutex_lock () =
    let free = { busy = P.make false } in
    { tail = P.make free; holder = P.make free }

  let lock l =
    let mine = { busy = P.make true } in
    let pred = P.exchange l.tail mine in
    while P.get pred.busy do
      P.on_spin ();
      P.pause ()
    done;
    P.set l.holder mine

  let try_lock l =
    let pred = P.get l.tail in
    if P.get pred.busy then false
    else begin
      let mine = { busy = P.make true } in
      if P.compare_and_set l.tail pred mine then begin
        (* A node's busy flag never goes false -> true, so the predecessor we
           observed free is still free: the lock is ours. *)
        P.set l.holder mine;
        true
      end
      else false
    end

  let unlock l = P.set (P.get l.holder).busy false
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
