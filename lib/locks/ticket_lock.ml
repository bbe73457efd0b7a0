module Make (P : Mp.Mp_intf.PRIMS) = struct
  type mutex_lock = { next : int P.cell; serving : int P.cell }

  let holder_must_unlock = true
  let mutex_lock () = { next = P.make 0; serving = P.make 0 }

  let try_lock l =
    let s = P.get l.serving in
    P.get l.next = s && P.compare_and_set l.next s (s + 1)

  let lock l =
    let ticket = P.fetch_and_add l.next 1 in
    while P.get l.serving <> ticket do
      P.on_spin ();
      P.pause ()
    done

  let unlock l = P.set l.serving (P.get l.serving + 1)
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
