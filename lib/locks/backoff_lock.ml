let min_backoff = 1
let max_backoff = 1024

module Make (P : Mp.Mp_intf.PRIMS) = struct
  type mutex_lock = bool P.cell

  let holder_must_unlock = false
  let mutex_lock () = P.make false
  let try_lock l = (not (P.get l)) && not (P.exchange l true)

  let lock l =
    let backoff = ref min_backoff in
    while not (try_lock l) do
      P.on_spin ();
      P.pause_n !backoff;
      backoff := min (2 * !backoff) max_backoff
    done

  let unlock l = P.set l false
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
