//! Minimal in-tree stackful coroutines for the event-driven executor.
//!
//! The executor multiplexes every simulated process onto the one
//! driver thread, so a process that must wait (another process now holds
//! the smaller virtual time) has to *suspend mid-call* and resume later
//! exactly where it left off. Rust has no stable stackful-coroutine
//! primitive and the zero-new-dependencies rule rules out `corosensei`
//! et al., so this module implements the smallest thing that works: a
//! heap-allocated stack per process plus a hand-written context switch
//! that saves and restores exactly the callee-saved register set of the
//! platform C ABI.
//!
//! Only two operations exist. [`Coro::resume`] switches from the driver
//! onto the coroutine's stack; [`yield_to_driver`] switches back. Both
//! are plain symmetric context switches through the same assembly
//! routine, so the whole scheduler state is two saved stack pointers in
//! a [`YieldCore`].
//!
//! Safety story, in one place:
//!
//! - **Unwinding never crosses the assembly frame.** The coroutine entry
//!   wrapper catches every panic ([`std::panic::catch_unwind`]) before
//!   the final switch back, and aborts the process if the impossible
//!   happens and the entry returns without switching.
//! - **Stacks are plain heap allocations** (16-byte aligned, default
//!   512 KiB, lazily committed by the host kernel) with no guard pages:
//!   a runaway simulated workload can overflow into the heap. Simulated
//!   workloads are shallow probe loops; the size is configurable via
//!   `SimConfig::coro_stack_bytes` for anything deeper.
//! - **Dropping a suspended (started, unfinished) coroutine leaks** the
//!   live frames on its stack — their destructors never run. The
//!   executor always drives every coroutine to completion, so this only
//!   occurs if the driver itself panics mid-run.
//!
//! Supported: x86_64 (SysV) and aarch64 (AAPCS64). Any other
//! architecture fails at compile time: there is no second scheduler to
//! fall back to, and a build that could not run a multi-process
//! experiment would only fail later and less legibly.

use std::alloc::{alloc, dealloc, Layout};
use std::marker::PhantomData;
use std::ptr;

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!(
    "simos::coro has a context switch for x86_64 and aarch64 only; \
     port `arch::switch`/`arch::fabricate` to build for this architecture"
);

/// Smallest stack the executor will fabricate. Probe workloads use a few
/// KiB; 64 KiB leaves generous headroom for formatting machinery in
/// panic paths.
pub(crate) const MIN_STACK_BYTES: usize = 64 << 10;

/// The two saved stack pointers a suspended coroutine consists of, plus
/// its completion flag. Lives in a `Box` so its address is stable across
/// switches; the executor hands raw pointers to it into workload
/// closures (via `SimProc`) so a kernel call can yield mid-call.
pub(crate) struct YieldCore {
    /// The coroutine's stack pointer while it is suspended.
    coro_sp: *mut u8,
    /// The driver's stack pointer while the coroutine runs.
    sched_sp: *mut u8,
    /// Set just before the final switch back to the driver.
    finished: bool,
}

/// Start-of-life context handed to the trampoline in a callee-saved
/// register: the entry closure plus the core to report into.
struct StartCtx {
    core: *mut YieldCore,
    entry: Option<Box<dyn FnOnce(*mut YieldCore) + 'static>>,
}

/// First Rust frame on every coroutine stack. Never returns normally:
/// the tail context switch hands control back to the driver for good.
extern "C" fn coro_start(ctx: *mut StartCtx) -> ! {
    // SAFETY: `ctx` points into the owning `Coro`, which outlives the
    // coroutine's whole execution (the driver borrows it to resume).
    let (core, entry) = unsafe { ((*ctx).core, (*ctx).entry.take().expect("entry present")) };
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
/// The next [`Coro::resume`] returns control to just after this call.
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

/// A heap-allocated coroutine stack. 16-byte alignment satisfies both
/// supported ABIs; the usable top is the highest 16-aligned address.
struct Stack {
    base: *mut u8,
    layout: Layout,
}

impl Stack {
    fn new(bytes: usize) -> Stack {
        let bytes = bytes.max(MIN_STACK_BYTES);
        let layout = Layout::from_size_align(bytes, 16).expect("stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "coroutine stack allocation failed");
        Stack { base, layout }
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the allocation.
        let top = unsafe { self.base.add(self.layout.size()) };
        ((top as usize) & !15) as *mut u8
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: allocated with this exact layout in `Stack::new`.
        unsafe { dealloc(self.base, self.layout) }
    }
}

/// One resumable simulated process: its stack, its saved-stack-pointer
/// pair, and the boxed start context the trampoline reads. The `'env`
/// lifetime ties the coroutine to the borrows its entry closure
/// captures (workload references, result slots).
pub(crate) struct Coro<'env> {
    core: Box<YieldCore>,
    _ctx: Box<StartCtx>,
    _stack: Stack,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Coro<'env> {
    /// Fabricates a suspended coroutine that, on first resume, calls
    /// `entry` with a pointer to its own [`YieldCore`].
    pub(crate) fn new(
        stack_bytes: usize,
        entry: Box<dyn FnOnce(*mut YieldCore) + 'env>,
    ) -> Coro<'env> {
        let stack = Stack::new(stack_bytes);
        let mut core = Box::new(YieldCore {
            coro_sp: ptr::null_mut(),
            sched_sp: ptr::null_mut(),
            finished: false,
        });
        // SAFETY: lifetime erasure only. `Coro<'env>` carries `'env` in
        // PhantomData, so the coroutine (and therefore the closure) cannot
        // outlive the borrows the closure captures.
        let entry: Box<dyn FnOnce(*mut YieldCore) + 'static> =
            unsafe { std::mem::transmute(entry) };
        let mut ctx = Box::new(StartCtx {
            core: ptr::addr_of_mut!(*core),
            entry: Some(entry),
        });
        // SAFETY: `stack.top()` is the 16-aligned top of a fresh
        // allocation large enough for the initial frame; `ctx` is boxed
        // and owned by the returned Coro, so its address is stable.
        core.coro_sp = unsafe { arch::fabricate(stack.top(), ptr::addr_of_mut!(*ctx)) };
        Coro {
            core,
            _ctx: ctx,
            _stack: stack,
            _env: PhantomData,
        }
    }

    /// Whether the entry closure has run to completion (or panicked and
    /// been caught). A finished coroutine must not be resumed.
    #[allow(dead_code)] // the executor tracks liveness in the kernel; tests use this
    pub(crate) fn finished(&self) -> bool {
        self.core.finished
    }

    /// Switches onto the coroutine's stack until it yields or finishes.
    /// Returns `finished()` for the driver's convenience.
    pub(crate) fn resume(&mut self) -> bool {
        assert!(!self.core.finished, "resumed a finished coroutine");
        let core: *mut YieldCore = ptr::addr_of_mut!(*self.core);
        // SAFETY: `coro_sp` is either the fabricated initial frame or the
        // pointer saved by the coroutine's last yield; both are valid
        // suspension points on the coroutine's own (live) stack.
        unsafe {
            arch::switch(ptr::addr_of_mut!((*core).sched_sp), (*core).coro_sp);
        }
        self.core.finished
    }
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::StartCtx;

    // Symmetric context switch, SysV x86_64. Saves the callee-saved
    // register set on the current stack, publishes the stack pointer
    // through `save`, then adopts `restore` and unwinds the same frame
    // shape. A fabricated initial frame (below) restores into the
    // trampoline instead, which forwards r12 (the StartCtx) to
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
    pub(super) unsafe fn fabricate(top: *mut u8, ctx: *mut StartCtx) -> *mut u8 {
        // SAFETY: caller guarantees `top` is the 16-aligned top of an
        // allocation with ≥ 7 usize slots below it.
        unsafe {
            let sp = top.cast::<usize>().sub(7);
            sp.add(0).write(0); // r15
            sp.add(1).write(0); // r14
            sp.add(2).write(0); // r13
            sp.add(3).write(ctx as usize); // r12 → StartCtx
            let start: extern "C" fn(*mut StartCtx) -> ! = super::coro_start;
            sp.add(4).write(start as usize); // rbx → entry fn
            sp.add(5).write(0); // rbp
            let tramp: unsafe extern "C" fn() = graybox_simos_coro_tramp;
            sp.add(6).write(tramp as usize); // return address
            sp.cast()
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::StartCtx;

    // Symmetric context switch, AAPCS64. The saved frame is 160 bytes:
    // x19–x28, the frame pair x29/x30, and the callee-saved low halves
    // d8–d15. A fabricated frame restores x19=StartCtx, x20=coro_start
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
    pub(super) unsafe fn fabricate(top: *mut u8, ctx: *mut StartCtx) -> *mut u8 {
        // SAFETY: caller guarantees `top` is the 16-aligned top of an
        // allocation with ≥ 160 bytes below it.
        unsafe {
            let sp = top.sub(160);
            core::ptr::write_bytes(sp, 0, 160);
            let slots = sp.cast::<usize>();
            slots.add(0).write(ctx as usize); // x19 → StartCtx
            let start: extern "C" fn(*mut StartCtx) -> ! = super::coro_start;
            slots.add(1).write(start as usize); // x20 → entry fn
            let tramp: unsafe extern "C" fn() = graybox_simos_coro_tramp;
            slots.add(11).write(tramp as usize); // x30 (offset 88)
            sp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn resume_yield_ping_pong() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let mut c = Coro::new(
            MIN_STACK_BYTES,
            Box::new(move |core| {
                inner.borrow_mut().push("a");
                unsafe { yield_to_driver(core) };
                inner.borrow_mut().push("b");
                unsafe { yield_to_driver(core) };
                inner.borrow_mut().push("c");
            }),
        );
        assert!(!c.resume());
        log.borrow_mut().push("driver1");
        assert!(!c.resume());
        log.borrow_mut().push("driver2");
        assert!(c.resume());
        assert_eq!(
            *log.borrow(),
            vec!["a", "driver1", "b", "driver2", "c"],
            "interleaving must be exactly resume/yield alternation"
        );
    }

    #[test]
    fn many_coroutines_round_robin() {
        const N: usize = 64;
        const ROUNDS: usize = 10;
        let tally = Rc::new(RefCell::new(vec![0usize; N]));
        let mut coros: Vec<Coro<'_>> = (0..N)
            .map(|i| {
                let tally = Rc::clone(&tally);
                Coro::new(
                    MIN_STACK_BYTES,
                    Box::new(move |core| {
                        for _ in 0..ROUNDS {
                            tally.borrow_mut()[i] += 1;
                            unsafe { yield_to_driver(core) };
                        }
                    }),
                )
            })
            .collect();
        while coros.iter().any(|c| !c.finished()) {
            for c in coros.iter_mut().filter(|c| !c.finished()) {
                c.resume();
            }
        }
        assert!(tally.borrow().iter().all(|&n| n == ROUNDS));
    }

    #[test]
    fn deep_stack_use_survives_switches() {
        fn burn(depth: usize, core: *mut YieldCore) -> u64 {
            let frame = [depth as u64; 8];
            if depth == 0 {
                unsafe { yield_to_driver(core) };
                return 1;
            }
            frame.iter().sum::<u64>() % 7 + burn(depth - 1, core)
        }
        let mut c = Coro::new(
            256 << 10,
            Box::new(|core| {
                let n = burn(500, core);
                assert!(n >= 500);
            }),
        );
        assert!(!c.resume(), "suspended at the bottom of the recursion");
        assert!(c.resume(), "ran back up and finished");
    }

    #[test]
    fn panicking_entry_is_contained() {
        let mut c = Coro::new(
            MIN_STACK_BYTES,
            Box::new(|core| {
                unsafe { yield_to_driver(core) };
                panic!("inside coroutine");
            }),
        );
        assert!(!c.resume());
        // The panic unwinds to coro_start's backstop, which marks the
        // coroutine finished and switches back here.
        assert!(c.resume());
    }

    #[test]
    fn captures_environment_borrows() {
        let mut out = 0u64;
        {
            let mut c = Coro::new(MIN_STACK_BYTES, Box::new(|_| out = 41 + 1));
            assert!(c.resume());
        }
        assert_eq!(out, 42);
    }
}
