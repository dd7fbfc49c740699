type t = {
  mutable instructions : int;
  mutable alu_ops : int;
  mutable branches : int;
  mutable global_loads : int;
  mutable global_load_bytes : int;
  mutable global_stores : int;
  mutable global_store_bytes : int;
  mutable shared_loads : int;
  mutable shared_load_bytes : int;
  mutable shared_stores : int;
  mutable shared_store_bytes : int;
  mutable atomics : int;
  mutable barrier_waits : int;
}

let create () =
  {
    instructions = 0;
    alu_ops = 0;
    branches = 0;
    global_loads = 0;
    global_load_bytes = 0;
    global_stores = 0;
    global_store_bytes = 0;
    shared_loads = 0;
    shared_load_bytes = 0;
    shared_stores = 0;
    shared_store_bytes = 0;
    atomics = 0;
    barrier_waits = 0;
  }

let reset t =
  t.instructions <- 0;
  t.alu_ops <- 0;
  t.branches <- 0;
  t.global_loads <- 0;
  t.global_load_bytes <- 0;
  t.global_stores <- 0;
  t.global_store_bytes <- 0;
  t.shared_loads <- 0;
  t.shared_load_bytes <- 0;
  t.shared_stores <- 0;
  t.shared_store_bytes <- 0;
  t.atomics <- 0;
  t.barrier_waits <- 0

let add_scaled acc k x =
  acc.instructions <- acc.instructions + (k * x.instructions);
  acc.alu_ops <- acc.alu_ops + (k * x.alu_ops);
  acc.branches <- acc.branches + (k * x.branches);
  acc.global_loads <- acc.global_loads + (k * x.global_loads);
  acc.global_load_bytes <- acc.global_load_bytes + (k * x.global_load_bytes);
  acc.global_stores <- acc.global_stores + (k * x.global_stores);
  acc.global_store_bytes <- acc.global_store_bytes + (k * x.global_store_bytes);
  acc.shared_loads <- acc.shared_loads + (k * x.shared_loads);
  acc.shared_load_bytes <- acc.shared_load_bytes + (k * x.shared_load_bytes);
  acc.shared_stores <- acc.shared_stores + (k * x.shared_stores);
  acc.shared_store_bytes <- acc.shared_store_bytes + (k * x.shared_store_bytes);
  acc.atomics <- acc.atomics + (k * x.atomics);
  acc.barrier_waits <- acc.barrier_waits + (k * x.barrier_waits)

let add acc x = add_scaled acc 1 x

let copy t =
  let c = create () in
  add c t;
  c

let equal a b =
  a.instructions = b.instructions
  && a.alu_ops = b.alu_ops
  && a.branches = b.branches
  && a.global_loads = b.global_loads
  && a.global_load_bytes = b.global_load_bytes
  && a.global_stores = b.global_stores
  && a.global_store_bytes = b.global_store_bytes
  && a.shared_loads = b.shared_loads
  && a.shared_load_bytes = b.shared_load_bytes
  && a.shared_stores = b.shared_stores
  && a.shared_store_bytes = b.shared_store_bytes
  && a.atomics = b.atomics
  && a.barrier_waits = b.barrier_waits

let global_bytes t = t.global_load_bytes + t.global_store_bytes
let shared_bytes t = t.shared_load_bytes + t.shared_store_bytes

let pp ppf t =
  Format.fprintf ppf
    "@[<v>instructions: %d@ alu: %d@ branches: %d@ global: %d loads / %d \
     stores (%d bytes)@ shared: %d loads / %d stores (%d bytes)@ atomics: %d@ \
     barrier waits: %d@]"
    t.instructions t.alu_ops t.branches t.global_loads t.global_stores
    (global_bytes t) t.shared_loads t.shared_stores (shared_bytes t) t.atomics
    t.barrier_waits
