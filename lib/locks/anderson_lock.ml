module Make (P : Mp.Mp_intf.PRIMS) = struct
  type mutex_lock = {
    flags : bool P.cell array; (* exactly one true flag: the grant token *)
    tail : int P.cell;
    holder_slot : int P.cell; (* slot of the current holder; written on acquire *)
  }

  let holder_must_unlock = true

  let mutex_lock_sized ~slots =
    if slots <= 0 then invalid_arg "Anderson_lock.mutex_lock_sized";
    {
      flags = Array.init slots (fun i -> P.make (i = 0));
      tail = P.make 0;
      holder_slot = P.make 0;
    }

  let mutex_lock () = mutex_lock_sized ~slots:64
  let slot l i = i mod Array.length l.flags

  let try_lock l =
    let t = P.get l.tail in
    if P.get l.flags.(slot l t) && P.compare_and_set l.tail t (t + 1) then begin
      P.set l.holder_slot (slot l t);
      true
    end
    else false

  let lock l =
    let my = slot l (P.fetch_and_add l.tail 1) in
    while not (P.get l.flags.(my)) do
      P.on_spin ();
      P.pause ()
    done;
    P.set l.holder_slot my

  let unlock l =
    let my = P.get l.holder_slot in
    P.set l.flags.(my) false;
    P.set l.flags.((my + 1) mod Array.length l.flags) true
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
