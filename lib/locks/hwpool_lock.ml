let pool_size = 64

module Make (P : Mp.Mp_intf.PRIMS) = struct
  module Hw = Tas_lock.Make (P)

  type mutex_lock = { id : int; mutable held : bool }

  let pool_size = pool_size
  let pool = Array.init pool_size (fun _ -> Hw.mutex_lock ())
  let next_id = P.make 0
  let holder_must_unlock = false
  let pool_index l = l.id mod pool_size

  let mutex_lock () =
    let id = P.fetch_and_add next_id 1 in
    { id; held = false }

  (* The software lock is a plain mutable bit; every access happens under the
     hardware lock that its id hashes to, exactly the SGI runtime's scheme. *)
  let with_hw l f =
    let hw = pool.(pool_index l) in
    Hw.lock hw;
    let v = f () in
    Hw.unlock hw;
    v

  let try_lock l =
    with_hw l (fun () ->
        if l.held then false
        else begin
          l.held <- true;
          true
        end)

  let lock l =
    while not (try_lock l) do
      P.on_spin ();
      P.pause ()
    done

  let unlock l = with_hw l (fun () -> l.held <- false)
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
