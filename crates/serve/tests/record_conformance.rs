//! Conformance: the serve daemon's durable writes walk the plan the
//! `ModelFs` crash explorer proves. The proof covers the result cache
//! and the job journal only if their writes execute
//! `ATOMIC_WRITE_STEPS`; these tests arm the
//! [`wcms_bench::protocol::probe`] around real writes and assert each
//! records exactly the plan's steps, and nothing else.

use wcms_bench::protocol::probe::{self, ProbeOp};
use wcms_bench::protocol::ATOMIC_WRITE_STEPS;
use wcms_serve::cache::ResultCache;
use wcms_serve::journal::JobJournal;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcms-serve-conform-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Run `write` under an armed probe and assert it walked exactly one
/// atomic write.
fn assert_one_atomic_write<T>(what: &str, write: impl FnOnce() -> T) -> T {
    probe::arm();
    let out = write();
    let ops = probe::disarm();
    let plan: Vec<ProbeOp> = ATOMIC_WRITE_STEPS
        .iter()
        .map(|&step| ProbeOp::Step { plan: "atomic-write", step })
        .collect();
    assert_eq!(ops, plan, "{what} must walk the spec's atomic-write plan exactly");
    out
}

#[test]
fn cache_store_walks_the_atomic_write_plan() {
    let cache = ResultCache::open(scratch("cache")).expect("cache opens");
    assert_one_atomic_write("ResultCache::store", || cache.store("key", "{}"))
        .expect("entry commits");
    std::fs::remove_dir_all(cache.dir()).ok();
}

#[test]
fn journal_records_walk_the_atomic_write_plan() {
    let journal = JobJournal::open(scratch("journal")).expect("journal opens");
    let request = "{\"op\":\"generate\"}";
    let id =
        assert_one_atomic_write("JobJournal::record_queued", || journal.record_queued(request))
            .expect("queued record commits");
    assert_one_atomic_write("JobJournal::mark_running", || journal.mark_running(id, request))
        .expect("running record commits");
    std::fs::remove_dir_all(journal.dir()).ok();
}
