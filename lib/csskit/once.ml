type 'a t = { value : 'a option Atomic.t; mutex : Mutex.t; build : unit -> 'a }

let make build = { value = Atomic.make None; mutex = Mutex.create (); build }

let force t =
  match Atomic.get t.value with
  | Some v -> v
  | None ->
    Mutex.protect t.mutex (fun () ->
        match Atomic.get t.value with
        | Some v -> v
        | None ->
          let v = t.build () in
          Atomic.set t.value (Some v);
          v)
