//! Allocation gate for the execution path. A machine epoch must allocate
//! a small, mesh-size-independent number of times per bound thread, and
//! binding a virtual core must not copy the chip's topology. Heap
//! allocations are deterministic, so this gate holds on any host, however
//! few cores it has.
//!
//! The counting allocator lives in this test binary only and counts per
//! thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vnpu::{Hypervisor, VirtCoreId, VmId, VnpuRequest};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates, so the allocator can use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations one epoch may make per bound thread: its flow, the packet
/// path of its send, its trace and report entries.
const EPOCH_ALLOCS_PER_THREAD: u64 = 8;

/// A hypervisor on `cfg` with a few resident vNPUs of mixed shapes, one
/// of them with NoC isolation (confined routing).
fn resident_vnpus(cfg: &SocConfig) -> (Hypervisor, Vec<VmId>) {
    let mut hv = Hypervisor::new(cfg.clone());
    let vms = [
        VnpuRequest::mesh(2, 2),
        VnpuRequest::mesh(3, 1),
        VnpuRequest::mesh(2, 2).noc_isolation(true),
        VnpuRequest::mesh(1, 1),
    ]
    .into_iter()
    .map(|req| hv.create_vnpu(req.mem_bytes(16 << 20)).unwrap())
    .collect();
    (hv, vms)
}

/// Binds the serving runtime's per-epoch ring program for every resident
/// vNPU: each virtual core computes and forwards a block to the next
/// virtual core, a single core only computes. Returns the bound threads.
fn bind_ring(machine: &mut Machine, hv: &Hypervisor, vms: &[VmId]) -> u64 {
    let mut threads = 0;
    for &vm in vms {
        let tenant = machine.add_tenant(&format!("vm{}", vm.0));
        let vnpu = hv.vnpu(vm).unwrap();
        let n = vnpu.core_count();
        for v in 0..n {
            let body = if n == 1 {
                vec![Instr::matmul(16, 16, 16)]
            } else {
                let (next, prev) = ((v + 1) % n, (v + n - 1) % n);
                vec![
                    Instr::matmul(16, 16, 16),
                    Instr::send(next, 1024, v),
                    Instr::recv(prev, 1024, prev),
                ]
            };
            let services = hv.services(vm, VirtCoreId(v)).unwrap();
            let phys = vnpu.phys_core(VirtCoreId(v)).unwrap();
            machine
                .bind_with(phys, tenant, v, Program::looped(vec![], body, 1), services)
                .unwrap();
            threads += 1;
        }
    }
    threads
}

/// Allocations inside one steady-state `run_epoch` on `cfg`, and the
/// bound thread count.
fn epoch_allocs(cfg: &SocConfig) -> (u64, u64) {
    let (hv, vms) = resident_vnpus(cfg);
    let mut machine = Machine::new(cfg.clone());
    bind_ring(&mut machine, &hv, &vms);
    machine.run_epoch().unwrap();
    let threads = bind_ring(&mut machine, &hv, &vms);
    let (report, allocs) = counted(|| machine.run_epoch());
    assert!(report.unwrap().makespan() > 0);
    (allocs, threads)
}

#[test]
fn epoch_allocations_are_bounded_per_thread_and_mesh_independent() {
    let (on_6x6, threads) = epoch_allocs(&SocConfig::sim());
    assert!(
        on_6x6 <= EPOCH_ALLOCS_PER_THREAD * threads,
        "{on_6x6} allocations for {threads} threads in one epoch"
    );
    let (on_8x6, threads_8x6) = epoch_allocs(&SocConfig::sim48());
    assert_eq!(threads, threads_8x6);
    assert_eq!(on_6x6, on_8x6, "epoch allocations grew with the mesh");
}

/// Allocations of each `services` call, for every core of every vNPU.
fn services_allocs(cfg: &SocConfig) -> Vec<u64> {
    let (hv, vms) = resident_vnpus(cfg);
    let mut per_call = Vec::new();
    for &vm in &vms {
        for v in 0..hv.vnpu(vm).unwrap().core_count() {
            let (services, allocs) = counted(|| hv.services(vm, VirtCoreId(v)));
            drop(services.unwrap());
            per_call.push(allocs);
        }
    }
    per_call
}

#[test]
fn services_allocations_do_not_grow_with_the_mesh() {
    assert_eq!(
        services_allocs(&SocConfig::sim()),
        services_allocs(&SocConfig::sim48())
    );
}
