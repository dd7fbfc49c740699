type direction = Host_to_device | Device_to_host

type t = {
  device : Device.t;
  faults : Fault_inject.t;
  trace : Weaver_obs.Trace.t;
  mutable bytes_h2d : int;
  mutable bytes_d2h : int;
  mutable transfers : int;
  mutable seconds : float;
}

let create ?(faults = Fault_inject.none) ?(trace = Weaver_obs.Trace.none)
    device =
  {
    device;
    faults;
    trace;
    bytes_h2d = 0;
    bytes_d2h = 0;
    transfers = 0;
    seconds = 0.0;
  }

let transfer_seconds (d : Device.t) ~bytes =
  (d.Device.pcie_latency_us *. 1e-6)
  +. (float_of_int bytes /. (d.Device.pcie_bw_gbps *. 1e9))

let transfer t dir ~bytes =
  if bytes < 0 then invalid_arg "Pcie.transfer: negative size";
  (match dir with
  | Host_to_device -> t.bytes_h2d <- t.bytes_h2d + bytes
  | Device_to_host -> t.bytes_d2h <- t.bytes_d2h + bytes);
  t.transfers <- t.transfers + 1;
  let d = t.device in
  let duration = transfer_seconds d ~bytes in
  t.seconds <- t.seconds +. duration;
  (* the PCIe ledger owns transfer time, so it advances the tracer clock;
     a span is emitted even for a transfer about to fail (it occupied the
     bus either way) *)
  let module T = Weaver_obs.Trace in
  (if T.active t.trace then begin
     let name =
       match dir with Host_to_device -> "h2d" | Device_to_host -> "d2h"
     in
     let sp =
       T.span t.trace ~lane:T.Pcie name
         ~args:(if T.recording t.trace then [ ("bytes", T.Int bytes) ] else [])
     in
     T.advance t.trace (duration *. d.Device.clock_ghz *. 1e9);
     T.close t.trace sp
   end);
  (* a failed transfer still occupied the bus: charge it before raising *)
  (try
     Fault_inject.on_transfer t.faults
       ~direction:
         (match dir with
         | Host_to_device -> Fault.H2d
         | Device_to_host -> Fault.D2h)
       ~bytes
   with e ->
     T.instant t.trace ~lane:T.Pcie "transfer_fault";
     raise e);
  duration

let total_bytes t = t.bytes_h2d + t.bytes_d2h
let bytes_h2d t = t.bytes_h2d
let bytes_d2h t = t.bytes_d2h
let transfer_count t = t.transfers
let total_seconds t = t.seconds

let total_cycles t = t.seconds *. t.device.Device.clock_ghz *. 1e9

let reset t =
  t.bytes_h2d <- 0;
  t.bytes_d2h <- 0;
  t.transfers <- 0;
  t.seconds <- 0.0
