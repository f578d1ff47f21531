//! The differential harness for batch fan-out: `CertaintySession`'s batch
//! entry points spread independent requests across scoped worker threads
//! (the `threads` budget of `EvalOptions`), and the answers must not depend
//! on how many.
//!
//! * **Batch bitmaps** — `CertaintySession::certain_batch` answers a mixed
//!   workload with byte-identical certain-answer bitmaps at 1, 2 and 8
//!   threads.
//! * **Fresh-session agreement** — an 8-thread batch agrees with per-request
//!   fresh sessions without fan-out and, where feasible, with the naive
//!   repair-enumeration oracle.

use cqa_datalog::prelude::*;
use cqa_solver::prelude::*;
use cqa_workloads::random::repeated_query_requests;

#[test]
fn certain_batch_bitmaps_are_byte_identical_across_thread_counts() {
    // A mixed workload covering every route of the tetrachotomy: FO (RXRX),
    // NL via the Datalog back-end (RRX, RXRY) and PTIME fixpoint (RXRYRY).
    let requests = repeated_query_requests(&["RXRX", "RRX", "RXRY", "RXRYRY"], 6, 3, 0xB17);
    let bitmap = |threads: usize| -> Vec<u8> {
        let session =
            CertaintySession::with_options(NlBackend::Datalog, EvalOptions::with_threads(threads));
        let answers = session.certain_batch(&requests);
        assert_eq!(
            session.stats().queries_prepared,
            4,
            "each distinct query prepared exactly once at {threads} threads"
        );
        let mut bytes = vec![0u8; requests.len().div_ceil(8)];
        for (i, answer) in answers.iter().enumerate() {
            let certain = *answer.as_ref().unwrap_or_else(|e| {
                panic!("request {i} failed at {threads} threads: {e}");
            });
            bytes[i / 8] |= (certain as u8) << (i % 8);
        }
        bytes
    };
    let reference = bitmap(1);
    // Not all-certain / not all-uncertain, or the comparison proves little.
    assert!(reference.iter().any(|&b| b != 0), "degenerate workload");
    for threads in [2usize, 8] {
        assert_eq!(
            bitmap(threads),
            reference,
            "bitmap at {threads} threads differs from sequential"
        );
    }
}

#[test]
fn parallel_batch_results_agree_with_fresh_sequential_sessions() {
    // End-to-end: a fanned-out batch session against per-request fresh
    // sessions without fan-out (and, where feasible, the naive
    // repair-enumeration oracle).
    let requests = repeated_query_requests(&["RRX", "RXRY"], 8, 4, 0x0DDB17);
    let session = CertaintySession::with_options(NlBackend::Datalog, EvalOptions::with_threads(8));
    let batch = session.certain_batch(&requests);
    let naive = NaiveSolver::with_limit(1 << 16);
    for (i, (query, db)) in requests.iter().enumerate() {
        let got = *batch[i].as_ref().unwrap();
        let fresh = CertaintySession::with_options(NlBackend::Datalog, EvalOptions::sequential())
            .certain(query, db)
            .unwrap();
        assert_eq!(got, fresh, "batch/per-call mismatch at {i} ({query})");
        if db.repair_count() <= 1 << 16 {
            assert_eq!(
                got,
                naive.certain(query, db).unwrap(),
                "oracle mismatch at {i} ({query})"
            );
        }
    }
}
