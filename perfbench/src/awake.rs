//! Keep every core awake while latency is measured.
//!
//! On a small VM an idle vCPU halts, and waking it for the next request
//! goes through the hypervisor: under load from other guests that adds
//! milliseconds at random, so request latency would measure the host's
//! scheduling rather than the program. One spinner thread per core at
//! the `SCHED_IDLE` policy keeps each vCPU running without taking time
//! from any normal thread: the kernel runs an idle-policy thread only
//! when nothing else on that core is runnable, and preempts it at once
//! when something is. This is the user-space form of disabling deep
//! idle states for a latency benchmark.

use std::sync::atomic::{AtomicBool, Ordering};

/// `SCHED_IDLE` from `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`; false if the kernel refused.
fn make_idle_priority() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads `param`, which is a valid,
    // initialised `struct sched_param` living across the call; pid 0
    // names the calling thread. No memory is shared with the kernel
    // after return.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Sets the stop flag when dropped, so the spinners end even if the
/// measured closure panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Run `f` with one idle-priority spinner per core; the spinners stop
/// and are joined before this returns. Without `SCHED_IDLE` (refused by
/// the kernel) no spinner runs, since a normal-priority one would steal
/// time from the program.
pub fn with_cores_awake<R>(cores: usize, f: impl FnOnce() -> R) -> R {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                if make_idle_priority() {
                    // Only a stop flag: Relaxed publishes nothing else.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let _stop = StopOnDrop(&stop);
        f()
    })
}
