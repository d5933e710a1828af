//! The designed abort path does not print: a `CollectiveAbort` unwinds
//! without running the panic hook, so a killed rank's surviving peers
//! stay quiet and the one originating failure is what a log shows.
//!
//! Its own test binary: the panic hook is process-global.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hf_simcluster::{CollectiveAbort, CommGroup, DeviceId};

#[test]
fn collective_abort_unwinds_without_running_the_panic_hook() {
    let hook_runs = Arc::new(AtomicUsize::new(0));
    let counter = hook_runs.clone();
    std::panic::set_hook(Box::new(move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
    }));

    let group = CommGroup::new(vec![DeviceId(0), DeviceId(1)]);
    group.poison("rank 1 died");
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        group.exchange(0, 7u32);
    }));
    let payload = res.expect_err("exchange on a poisoned group must abort");
    let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
    assert_eq!(abort.reason, "rank 1 died");
    assert_eq!(hook_runs.load(Ordering::SeqCst), 0, "the abort path must not run the panic hook");

    // An originating panic still reaches the hook.
    let res = std::panic::catch_unwind(|| panic!("a real failure"));
    assert!(res.is_err());
    assert_eq!(hook_runs.load(Ordering::SeqCst), 1);
    let _ = std::panic::take_hook();
}
