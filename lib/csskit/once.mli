(** A value built at most once, on first use, safely from any number
    of threads or domains.

    [Lazy.t] is not that: on OCaml 5 a second systhread forcing a lazy
    value that another thread is still building raises
    [CamlinternalLazy.Undefined].  A {!t} instead holds a mutex across
    the build, so concurrent callers wait for the one build and all
    see its result.  A build that raises leaves the cell empty (the
    next {!force} retries). *)

type 'a t

(** [make build] — an empty cell that [build ()] fills on first use. *)
val make : (unit -> 'a) -> 'a t

(** [force t] — the built value, building it first if needed. *)
val force : 'a t -> 'a
