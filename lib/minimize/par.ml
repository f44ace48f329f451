(* Parallel execution context for shared-store workloads: an [Exec]
   worker pool plus the [Bdd.Shared] store whose views the workers
   check out per task.  Its one client is the image computation's
   per-cluster merge tree; a caller builds it once next to its pool. *)

type t = { pool : Exec.Pool.t; store : Bdd.Shared.store }

let make ~pool ~store = { pool; store }

(* Deterministic parallel map: results in list order, each task on a
   checked-out view.  The closure must combine only edges of this
   store. *)
let map t f xs =
  Exec.map_on t.pool
    (fun x -> Bdd.Shared.with_view t.store (fun view -> f view x))
    xs
