//! Minimal in-tree stackful coroutines for the event-driven executor.
//!
//! The executor multiplexes every simulated process onto the one
//! driver thread, so a process that must wait (another process now holds
//! the smaller virtual time) has to *suspend mid-call* and resume later
//! exactly where it left off. Rust has no stable stackful-coroutine
//! primitive and the zero-new-dependencies rule rules out `corosensei`
//! et al., so this module implements the smallest thing that works: a
//! guard-paged stack per process, drawn from a per-thread pool, plus a
//! hand-written context switch that saves and restores exactly the
//! callee-saved register set of the platform C ABI.
//!
//! Only two operations exist. [`Coros::resume`] switches from the driver
//! onto a coroutine's stack; [`yield_to_driver`] switches back. Both
//! are plain symmetric context switches through the same assembly
//! routine, so the whole scheduler state is two saved stack pointers in
//! a [`YieldCore`]. A third, [`Coros::prefetch`], is a cache hint and
//! switches nothing.
//!
//! Safety story, in one place:
//!
//! - **A coroutine's context never moves.** A run's coroutines live in
//!   one [`Coros`] table, a boxed slice of rows built once and never
//!   resized. A row holds the coroutine's [`YieldCore`], its start
//!   context (the entry closure, taken by the trampoline on the first
//!   resume) and its stack. Frames are fabricated only after the table
//!   is built, so the row address each frame hands the trampoline, and
//!   the `YieldCore` address the entry hands `SimProc`, stay valid until
//!   the table is dropped; nothing gives out a `&mut` to a row.
//! - **Unwinding never crosses the assembly frame.** The coroutine entry
//!   wrapper catches every panic ([`std::panic::catch_unwind`]) before
//!   the final switch back, and aborts the process if the impossible
//!   happens and the entry returns without switching.
//! - **Every stack ends in a guard.** A stack is one anonymous mapping
//!   of [`STACK_BYTES`] with `GUARD_BYTES` of `PROT_NONE` below it, so a
//!   workload that outgrows its stack dies by `SIGSEGV`/`SIGBUS` at the
//!   faulting store (Rust's stack probes keep large frames from
//!   stepping over the guard) instead of writing into a neighbour. There
//!   is one size: see [`STACK_BYTES`] for the measured depth behind it.
//! - **Stacks are pooled per thread and never trimmed.** A finished
//!   coroutine's stack goes on its thread's free list and the next
//!   [`Coros::new`] on that thread takes it back, dirty pages and all:
//!   a new stack per simulated process, unguarded, was a third of a
//!   one-shot probe process's host time in allocation and demand-zero
//!   faults, and guarded it was more. The pool holds as many
//!   stacks as the thread's largest fleet had live at once, which that
//!   fleet needed anyway, and unmaps them when the thread exits; a
//!   trim policy would only re-buy the faults between rounds. A recycled
//!   stack is handed out as it was left: `fabricate` writes the one
//!   frame that is read before it is written.
//! - **Dropping a suspended (started, unfinished) coroutine leaks** the
//!   live frames on its stack — their destructors never run — and
//!   returns the stack to the pool like any other. The executor always
//!   drives every coroutine to completion, so this only occurs if the
//!   driver itself panics mid-run. An unstarted coroutine's entry is
//!   still in its row and drops with it; a finished one's was consumed
//!   by its call.
//!
//! Ceiling: each mapped stack is two host mappings (guard, stack), and
//! Linux caps a process at `vm.max_map_count` of them (65 530 by
//! default), so about 32 000 coroutines can be live in one process at
//! once. Mapping one more panics with a message that says so.
//!
//! Supported: x86_64 (SysV) and aarch64 (AAPCS64) on Unix. Anything else
//! fails at compile time: there is no second scheduler to fall back to,
//! and a build that could not run a multi-process experiment would only
//! fail later and less legibly.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ptr;

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "simos::coro has a context switch for x86_64 and aarch64 and maps its stacks with \
     mmap: port `arch::switch`/`arch::fabricate` and `sys` to build for this target"
);

/// Usable bytes of every coroutine stack, the pool's one size.
///
/// Sized from what `exec::tests::stack_high_water_marks_leave_headroom`
/// reads off recycled stacks (table in EXPERIMENTS.md "Host cost: pooled
/// coroutine stacks"): an FCCD probe process writes 7 KiB of its stack
/// in a debug build, a panic that prints a backtrace 21 KiB, and the
/// deepest workload anywhere in the workspace's tests 24 KiB. 256 KiB is
/// ten times that. Only touched pages cost host memory; the rest is
/// address space, 4 GiB of it for a 16 384-process fleet.
pub(crate) const STACK_BYTES: usize = 256 << 10;

/// Inaccessible bytes below every stack: a multiple of every page size
/// the supported targets run with (4, 16 and 64 KiB), so the pool never
/// has to ask the host for its page size.
const GUARD_BYTES: usize = 64 << 10;

const _: () = assert!(STACK_BYTES.is_multiple_of(GUARD_BYTES));

/// One mapping: the guard, then the stack above it.
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

/// The two saved stack pointers a suspended coroutine consists of, plus
/// its completion flag. Lives in its coroutine's row of a [`Coros`]
/// table, so its address is stable across switches; the executor hands
/// raw pointers to it into workload closures (via `SimProc`) so a kernel
/// call can yield mid-call.
pub(crate) struct YieldCore {
    /// The coroutine's stack pointer while it is suspended.
    coro_sp: *mut u8,
    /// The driver's stack pointer while the coroutine runs.
    sched_sp: *mut u8,
    /// Set just before the final switch back to the driver.
    finished: bool,
}

/// What a coroutine runs; a [`Slot`] holds it with its lifetime erased
/// (see [`Coros::new`]).
type Entry<'env> = Box<dyn FnOnce(*mut YieldCore) + 'env>;

/// One coroutine's row of a [`Coros`] table: its saved stack pointers,
/// the entry closure the trampoline takes on the first resume, and its
/// stack. The trampoline gets a pointer to the whole row in a
/// callee-saved register.
struct Slot {
    core: YieldCore,
    entry: Option<Entry<'static>>,
    stack: Stack,
}

/// First Rust frame on every coroutine stack. Never returns normally:
/// the tail context switch hands control back to the driver for good.
extern "C" fn coro_start(slot: *mut Slot) -> ! {
    // SAFETY: `slot` is a row of a `Coros` table, which never moves its
    // rows and outlives the coroutine's whole execution (the driver
    // borrows it to resume).
    let (core, entry) = unsafe {
        (
            ptr::addr_of_mut!((*slot).core),
            (*slot).entry.take().expect("entry present"),
        )
    };
    // Backstop: the executor already wraps workloads in catch_unwind,
    // but *nothing* may ever unwind through the fabricated assembly
    // frame below this one.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry(core)));
    // SAFETY: `core` outlives the coroutine; the driver resumed us, so
    // `sched_sp` holds its valid suspended stack pointer.
    unsafe {
        (*core).finished = true;
        arch::switch(ptr::addr_of_mut!((*core).coro_sp), (*core).sched_sp);
    }
    // The driver never resumes a finished coroutine, so the switch above
    // cannot return. Unwinding or falling through here would run off the
    // fabricated frame — make it a hard stop instead.
    std::process::abort();
}

/// Suspends the currently running coroutine and switches to the driver.
/// The next [`Coros::resume`] returns control to just after this call.
///
/// # Safety
/// `core` must point at the [`YieldCore`] of the coroutine whose stack
/// the caller is executing on, and the driver that resumed it must still
/// be suspended in `resume` (always true under the executor's
/// one-runnable-at-a-time discipline).
pub(crate) unsafe fn yield_to_driver(core: *mut YieldCore) {
    // SAFETY: forwarded from the caller.
    unsafe {
        arch::switch(ptr::addr_of_mut!((*core).coro_sp), (*core).sched_sp);
    }
}

/// The host calls behind the stack pool, declared here because the
/// zero-dependency rule leaves no `libc` crate to take them from. The
/// constants are the same on every supported Unix except `MAP_ANON`.
mod sys {
    use std::ffi::{c_int, c_void};

    pub(super) const PROT_NONE: c_int = 0;
    pub(super) const PROT_READ: c_int = 1;
    pub(super) const PROT_WRITE: c_int = 2;
    pub(super) const MAP_PRIVATE: c_int = 0x02;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub(super) const MAP_ANON: c_int = 0x20;
    /// macOS, iOS and the BSDs.
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub(super) const MAP_ANON: c_int = 0x1000;
    pub(super) const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub(super) fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    }
}

/// Maps one stack, guard first, and returns the mapping's base.
fn map_stack() -> std::io::Result<*mut u8> {
    // SAFETY: an anonymous private mapping at an address the kernel
    // picks aliases nothing, and the two calls after it name only bytes
    // of that mapping.
    unsafe {
        let base = sys::mmap(
            ptr::null_mut(),
            MAP_BYTES,
            sys::PROT_READ | sys::PROT_WRITE,
            sys::MAP_PRIVATE | sys::MAP_ANON,
            -1,
            0,
        );
        if base == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        if sys::mprotect(base, GUARD_BYTES, sys::PROT_NONE) != 0 {
            let err = std::io::Error::last_os_error();
            sys::munmap(base, MAP_BYTES);
            return Err(err);
        }
        Ok(base.cast())
    }
}

/// Unmaps a stack [`map_stack`] returned. Nothing may be running on it.
fn unmap_stack(base: *mut u8) {
    // SAFETY: `base` came from `map_stack` with this length and its last
    // owner — a dropped `Stack` or the pool's free list — is giving it
    // up, so no pointer into the mapping is used again. A failure would
    // leak the mapping and nothing else, so the result is ignored.
    unsafe {
        sys::munmap(base.cast(), MAP_BYTES);
    }
}

/// One thread's stacks: those no coroutine is on, and how many exist.
struct Pool {
    /// Bases of idle stacks; the most recently freed is taken first,
    /// while its pages are still in the host's caches.
    free: RefCell<Vec<*mut u8>>,
    /// Stacks this thread has mapped, idle or in use. Nothing unmaps
    /// before the thread exits, so it only counts up.
    mapped: Cell<usize>,
}

thread_local! {
    static POOL: Pool = const {
        Pool {
            free: RefCell::new(Vec::new()),
            mapped: Cell::new(0),
        }
    };
}

impl Pool {
    fn take(&self) -> *mut u8 {
        if let Some(base) = self.free.borrow_mut().pop() {
            return base;
        }
        let held = self.mapped.get();
        let base = map_stack().unwrap_or_else(|err| {
            panic!(
                "cannot map a coroutine stack ({err}): this thread already holds {held} stacks \
                 of two mappings each, one per live simulated process, and the host allows a \
                 process vm.max_map_count mappings (65530 unless raised) — run fewer processes \
                 at once or raise the sysctl"
            )
        });
        self.mapped.set(held + 1);
        base
    }
}

impl Drop for Pool {
    /// Thread exit. `toolbox::pool` starts fresh worker threads on every
    /// call, so a pool that outlived its thread would leak a fleet's
    /// worth of mappings per call.
    fn drop(&mut self) {
        for base in self.free.get_mut().drain(..) {
            unmap_stack(base);
        }
    }
}

/// A coroutine stack on loan from this thread's [`Pool`]: `base` is the
/// bottom of the guard, the usable bytes sit above it.
struct Stack {
    base: *mut u8,
}

impl Stack {
    fn new() -> Stack {
        Stack {
            base: POOL.with(Pool::take),
        }
    }

    /// One past the highest usable byte; page-aligned, so aligned for
    /// both supported ABIs.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(MAP_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // A coroutine dropped by another thread-local's destructor can
        // outlive the pool; its stack then has nowhere to go back to.
        if POOL
            .try_with(|pool| pool.free.borrow_mut().push(self.base))
            .is_err()
        {
            unmap_stack(self.base);
        }
    }
}

/// How deep the most recently freed stack was ever written: the distance
/// from its top down to its lowest non-zero byte. A fresh mapping reads
/// as zeros, so for a stack mapped for the coroutine that just finished
/// this is that coroutine's high-water mark.
#[cfg(test)]
pub(crate) fn last_freed_high_water() -> usize {
    let base = POOL.with(|pool| *pool.free.borrow().last().expect("a stack was freed"));
    // SAFETY: a stack on the free list is mapped, `STACK_BYTES` readable
    // bytes above its guard, and no coroutine is running on it.
    let bytes = unsafe { std::slice::from_raw_parts(base.add(GUARD_BYTES), STACK_BYTES) };
    STACK_BYTES - bytes.iter().position(|&b| b != 0).unwrap_or(STACK_BYTES)
}

/// A run's resumable simulated processes, one [`Slot`] each, in one
/// allocation that is never resized: the trampoline and every `SimProc`
/// hold pointers into it. The `'env` lifetime ties the coroutines to the
/// borrows their entry closures capture (workload references, result
/// slots).
pub(crate) struct Coros<'env> {
    slots: Box<[Slot]>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Coros<'env> {
    /// Fabricates one suspended coroutine per entry. On its first resume,
    /// coroutine `i` calls entry `i` with a pointer to its own
    /// [`YieldCore`]. The entry's box is the one allocation a coroutine
    /// makes of its own.
    pub(crate) fn new<F>(entries: impl IntoIterator<Item = F>) -> Coros<'env>
    where
        F: FnOnce(*mut YieldCore) + 'env,
    {
        let mut slots: Box<[Slot]> = entries
            .into_iter()
            .map(|entry| Slot {
                core: YieldCore {
                    coro_sp: ptr::null_mut(),
                    sched_sp: ptr::null_mut(),
                    finished: false,
                },
                // SAFETY: lifetime erasure only. `Coros<'env>` carries
                // `'env` in PhantomData, so the coroutines (and
                // therefore the closures) cannot outlive the borrows
                // the closures capture.
                entry: Some(unsafe {
                    std::mem::transmute::<Entry<'env>, Entry<'static>>(Box::new(entry))
                }),
                stack: Stack::new(),
            })
            .collect();
        // Every row is at its final address only now that the table is
        // built: fabricating earlier would hand the trampoline a pointer
        // the collection moved.
        for slot in slots.iter_mut() {
            let row: *mut Slot = slot;
            // SAFETY: `stack.top()` is the page-aligned top of
            // `STACK_BYTES` writable bytes that nothing else is running
            // on; `row` lives in the table's one allocation, which no
            // method resizes, so its address is stable.
            slot.core.coro_sp = unsafe { arch::fabricate(slot.stack.top(), row) };
        }
        Coros {
            slots,
            _env: PhantomData,
        }
    }

    /// Whether coroutine `i`'s entry has run to completion (or panicked
    /// and been caught). A finished coroutine must not be resumed.
    #[allow(dead_code)] // the executor tracks liveness in the kernel; tests use this
    pub(crate) fn finished(&self, i: usize) -> bool {
        self.slots[i].core.finished
    }

    /// Switches onto coroutine `i`'s stack until it yields or finishes.
    /// Returns `finished(i)` for the driver's convenience.
    pub(crate) fn resume(&mut self, i: usize) -> bool {
        let core = &mut self.slots[i].core;
        assert!(!core.finished, "resumed a finished coroutine");
        let core: *mut YieldCore = core;
        // SAFETY: `coro_sp` is either the fabricated initial frame or the
        // pointer saved by the coroutine's last yield; both are valid
        // suspension points on the coroutine's own (live) stack.
        unsafe {
            arch::switch(ptr::addr_of_mut!((*core).sched_sp), (*core).coro_sp);
        }
        self.slots[i].core.finished
    }

    /// Asks the host's caches for the frame coroutine `i` will restore
    /// first when it is next resumed. A hint: it changes no state, only
    /// how long the first loads of that resume wait.
    pub(crate) fn prefetch(&self, i: usize) {
        arch::prefetch(self.slots[i].core.coro_sp);
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::Slot;

    // Symmetric context switch, SysV x86_64. Saves the callee-saved
    // register set on the current stack, publishes the stack pointer
    // through `save`, then adopts `restore` and unwinds the same frame
    // shape. A fabricated initial frame (below) restores into the
    // trampoline instead, which forwards r12 (the Slot) to
    // `coro_start` in rbx. rsp is 8 mod 16 at every save point (post
    // call-push plus six pushes), so a restored frame re-enters Rust
    // with standard ABI alignment.
    core::arch::global_asm!(
        ".text",
        ".globl graybox_simos_ctx_switch",
        ".p2align 4",
        "graybox_simos_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".globl graybox_simos_coro_tramp",
        ".p2align 4",
        "graybox_simos_coro_tramp:",
        "mov rdi, r12",
        "call rbx",
        "ud2",
    );

    extern "C" {
        fn graybox_simos_ctx_switch(save: *mut *mut u8, restore: *mut u8);
        fn graybox_simos_coro_tramp();
    }

    pub(super) unsafe fn switch(save: *mut *mut u8, restore: *mut u8) {
        // SAFETY: forwarded from callers in the parent module.
        unsafe { graybox_simos_ctx_switch(save, restore) }
    }

    /// Builds the initial 7-slot frame `ctx_switch` will restore:
    /// r15 r14 r13 r12=ctx rbx=coro_start rbp=0 ret=trampoline.
    pub(super) unsafe fn fabricate(top: *mut u8, ctx: *mut Slot) -> *mut u8 {
        // SAFETY: caller guarantees `top` is the 16-aligned top of an
        // allocation with ≥ 7 usize slots below it.
        unsafe {
            let sp = top.cast::<usize>().sub(7);
            sp.add(0).write(0); // r15
            sp.add(1).write(0); // r14
            sp.add(2).write(0); // r13
            sp.add(3).write(ctx as usize); // r12 → Slot
            let start: extern "C" fn(*mut Slot) -> ! = super::coro_start;
            sp.add(4).write(start as usize); // rbx → entry fn
            sp.add(5).write(0); // rbp
            let tramp: unsafe extern "C" fn() = graybox_simos_coro_tramp;
            sp.add(6).write(tramp as usize); // return address
            sp.cast()
        }
    }

    /// One `prefetcht0` of the line at a suspended coroutine's saved
    /// stack pointer, which the first pops of its resume read.
    pub(super) fn prefetch(sp: *const u8) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch loads nothing into a register and cannot
        // fault, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(sp.cast()) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::Slot;

    // Symmetric context switch, AAPCS64. The saved frame is 160 bytes:
    // x19–x28, the frame pair x29/x30, and the callee-saved low halves
    // d8–d15. A fabricated frame restores x19=Slot, x20=coro_start
    // and returns (via x30) into the trampoline.
    core::arch::global_asm!(
        ".text",
        ".globl graybox_simos_ctx_switch",
        ".p2align 4",
        "graybox_simos_ctx_switch:",
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
        ".globl graybox_simos_coro_tramp",
        ".p2align 4",
        "graybox_simos_coro_tramp:",
        "mov x0, x19",
        "blr x20",
        "brk #1",
    );

    extern "C" {
        fn graybox_simos_ctx_switch(save: *mut *mut u8, restore: *mut u8);
        fn graybox_simos_coro_tramp();
    }

    pub(super) unsafe fn switch(save: *mut *mut u8, restore: *mut u8) {
        // SAFETY: forwarded from callers in the parent module.
        unsafe { graybox_simos_ctx_switch(save, restore) }
    }

    /// Builds the initial 160-byte frame `ctx_switch` will restore:
    /// x19=ctx, x20=coro_start, x30=trampoline, everything else zero.
    pub(super) unsafe fn fabricate(top: *mut u8, ctx: *mut Slot) -> *mut u8 {
        // SAFETY: caller guarantees `top` is the 16-aligned top of an
        // allocation with ≥ 160 bytes below it.
        unsafe {
            let sp = top.sub(160);
            core::ptr::write_bytes(sp, 0, 160);
            let slots = sp.cast::<usize>();
            slots.add(0).write(ctx as usize); // x19 → Slot
            let start: extern "C" fn(*mut Slot) -> ! = super::coro_start;
            slots.add(1).write(start as usize); // x20 → entry fn
            let tramp: unsafe extern "C" fn() = graybox_simos_coro_tramp;
            slots.add(11).write(tramp as usize); // x30 (offset 88)
            sp
        }
    }

    /// One `prfm pldl1keep` of the line at a suspended coroutine's saved
    /// stack pointer, which the first `ldp`s of its resume read.
    pub(super) fn prefetch(sp: *const u8) {
        // SAFETY: `prfm` is a hint: it writes no register or memory and
        // cannot fault, whatever the address.
        unsafe {
            core::arch::asm!(
                "prfm pldl1keep, [{sp}]",
                sp = in(reg) sp,
                options(nostack, readonly, preserves_flags)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Suspends the calling test coroutine.
    fn pause(core: *mut YieldCore) {
        // SAFETY: every caller below is an entry closure passing on the
        // `core` it was started with, resumed by its test's own thread.
        unsafe { yield_to_driver(core) };
    }

    /// A table of one coroutine.
    fn one<'env>(entry: impl FnOnce(*mut YieldCore) + 'env) -> Coros<'env> {
        Coros::new([entry])
    }

    #[test]
    fn resume_yield_ping_pong() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let mut c = one(move |core| {
            inner.borrow_mut().push("a");
            pause(core);
            inner.borrow_mut().push("b");
            pause(core);
            inner.borrow_mut().push("c");
        });
        assert!(!c.resume(0));
        log.borrow_mut().push("driver1");
        assert!(!c.resume(0));
        log.borrow_mut().push("driver2");
        assert!(c.resume(0));
        assert_eq!(
            *log.borrow(),
            vec!["a", "driver1", "b", "driver2", "c"],
            "interleaving must be exactly resume/yield alternation"
        );
    }

    fn round_robin() {
        const N: usize = 64;
        const ROUNDS: usize = 10;
        let tally = Rc::new(RefCell::new(vec![0usize; N]));
        let mut coros = Coros::new((0..N).map(|i| {
            let tally = Rc::clone(&tally);
            move |core| {
                for _ in 0..ROUNDS {
                    tally.borrow_mut()[i] += 1;
                    pause(core);
                }
            }
        }));
        while (0..N).any(|i| !coros.finished(i)) {
            for i in 0..N {
                if !coros.finished(i) {
                    // Out of order on purpose: a hint names any row.
                    coros.prefetch(N - 1 - i);
                    coros.resume(i);
                }
            }
        }
        assert!(tally.borrow().iter().all(|&n| n == ROUNDS));
    }

    /// Every test has its thread, and so its pool, to itself.
    fn mapped_by_this_thread() -> usize {
        POOL.with(|pool| pool.mapped.get())
    }

    #[test]
    fn many_coroutines_round_robin() {
        round_robin();
        assert_eq!(mapped_by_this_thread(), 64);
        round_robin();
        assert_eq!(
            mapped_by_this_thread(),
            64,
            "the second fleet ran on the first one's stacks"
        );
    }

    #[test]
    fn freed_stacks_are_reused_most_recent_first() {
        let (first, second) = (Stack::new(), Stack::new());
        let (base1, base2) = (first.base, second.base);
        drop(first);
        drop(second);
        let again = Stack::new();
        assert_eq!(again.base, base2);
        assert_eq!(Stack::new().base, base1);
        assert_eq!(mapped_by_this_thread(), 2);
    }

    #[test]
    fn stack_dropped_while_suspended_runs_the_next_coroutine() {
        let mut abandoned = one(|core| {
            let live = std::hint::black_box([0xA5u8; 2048]);
            pause(core);
            unreachable!("never resumed again: {}", live[0]);
        });
        assert!(!abandoned.resume(0));
        let base = abandoned.slots[0].stack.base;
        drop(abandoned);

        let mut sum = 0u64;
        let mut next = one(|_| {
            let fresh = std::hint::black_box([1u64; 512]);
            sum = fresh.iter().sum();
        });
        assert_eq!(
            next.slots[0].stack.base, base,
            "fabricated over the abandoned frames"
        );
        assert!(next.resume(0));
        drop(next);
        assert_eq!(sum, 512);
        assert_eq!(mapped_by_this_thread(), 1);
    }

    #[test]
    fn deep_stack_use_survives_switches() {
        fn burn(depth: usize, core: *mut YieldCore) -> u64 {
            let frame = [depth as u64; 8];
            if depth == 0 {
                pause(core);
                return 1;
            }
            frame.iter().sum::<u64>() % 7 + burn(depth - 1, core)
        }
        let mut c = one(|core| {
            let n = burn(500, core);
            assert!(n >= 500);
        });
        assert!(!c.resume(0), "suspended at the bottom of the recursion");
        assert!(c.resume(0), "ran back up and finished");
    }

    #[test]
    fn panicking_entry_is_contained() {
        let mut c = one(|core| {
            pause(core);
            panic!("inside coroutine");
        });
        assert!(!c.resume(0));
        // The panic unwinds to coro_start's backstop, which marks the
        // coroutine finished and switches back here.
        assert!(c.resume(0));
    }

    #[test]
    fn captures_environment_borrows() {
        let mut out = 0u64;
        {
            let mut c = one(|_| out = 41 + 1);
            assert!(c.resume(0));
        }
        assert_eq!(out, 42);
    }

    #[test]
    fn unstarted_coroutine_drops_its_captures_once() {
        let held = Rc::new(());
        let table = Coros::new((0..2).map(|_| {
            let capture = Rc::clone(&held);
            move |_: *mut YieldCore| drop(capture)
        }));
        assert_eq!(Rc::strong_count(&held), 3);
        drop(table);
        assert_eq!(
            Rc::strong_count(&held),
            1,
            "each never-resumed entry dropped its capture exactly once"
        );
    }

    #[test]
    fn finished_coroutine_has_dropped_its_captures() {
        let held = Rc::new(());
        let inner = Rc::clone(&held);
        let mut c = one(move |core| {
            let _kept = inner;
            pause(core);
        });
        assert!(!c.resume(0));
        assert_eq!(Rc::strong_count(&held), 2, "a suspended entry holds it");
        assert!(c.resume(0));
        assert_eq!(
            Rc::strong_count(&held),
            1,
            "finishing dropped the capture before the table went"
        );
        drop(c);
        assert_eq!(Rc::strong_count(&held), 1);
    }
}
