module Make (P : Mp.Mp_intf.PRIMS) = struct
  type mutex_lock = bool P.cell

  let holder_must_unlock = false
  let mutex_lock () = P.make false
  let try_lock l = (not (P.get l)) && not (P.exchange l true)

  let lock l =
    while not (try_lock l) do
      P.on_spin ();
      while P.get l do
        P.pause ()
      done
    done

  let unlock l = P.set l false
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
