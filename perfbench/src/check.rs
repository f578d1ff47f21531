//! Correctness and determinism checks, and the small statistics helpers.
//!
//! Every reply bitmap is checked against a fresh `DispatchSolver::new()` —
//! the direct NL back-end on materialized `prefix ∪ delta`, no resident base,
//! no maintenance — on the family state the trace says the tenant was in.
//! Answers are memoized per (tenant, state, word, request), so the oracle
//! runs once per distinct instance, outside every timed window.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use cqa_solver::dispatch::DispatchSolver;

use crate::wire::Outcome;
use crate::workload::{Cmd, Op, Trace};

/// Failed commands (`ERR`, unexpected replies, mispredicted residency, and
/// answers that disagree with the oracle) and the first failure's message.
pub fn verify(trace: &Trace, cmds: &[Cmd], outcomes: &[Outcome]) -> (usize, Option<String>) {
    let solver = DispatchSolver::new();
    let mut memo: HashMap<(usize, Option<usize>, usize, usize), bool> = HashMap::new();
    let mut failed = 0;
    let mut first = None;
    let mut fail = |msg: String| {
        failed += 1;
        first.get_or_insert(msg);
    };
    for (i, (cmd, outcome)) in cmds.iter().zip(outcomes).enumerate() {
        match (cmd.op, outcome) {
            (_, Outcome::Failed(msg)) => fail(format!("command {i} ({:?}): {msg}", cmd.op)),
            (Op::Query { tenant, word }, Outcome::Answers(bits)) => {
                let t = &trace.tenants[tenant];
                if bits.len() != t.family.len() {
                    fail(format!(
                        "command {i}: {} answers for {} requests",
                        bits.len(),
                        t.family.len()
                    ));
                    continue;
                }
                for (request, &bit) in bits.iter().enumerate() {
                    // A mutation only changes the one request it targets.
                    let state = cmd.state.filter(|&m| t.mutations[m].0 == request);
                    let expected =
                        *memo
                            .entry((tenant, state, word, request))
                            .or_insert_with(|| {
                                let mut db = t.family.materialize(request);
                                if let Some(m) = state {
                                    db.extend_with(&t.mutations[m].1);
                                }
                                solver
                                    .session()
                                    .certain(&trace.queries[word], &db)
                                    .expect("the oracle decides every request")
                            });
                    if bit != expected {
                        fail(format!(
                            "command {i}: {} on {} request {request} answered {bit}, oracle says {expected}",
                            trace.words[word], t.name
                        ));
                    }
                }
            }
            (Op::Query { .. }, Outcome::Done) => fail(format!("command {i}: no answers")),
            _ => {}
        }
    }
    (failed, first)
}

/// FNV-1a over the concatenation of `chunks`.
pub fn fnv1a<B: AsRef<[u8]>>(chunks: impl IntoIterator<Item = B>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &byte in chunk.as_ref() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// FNV-1a over every answer bitmap, one line each, in command order.
pub fn answer_digest(outcomes: &[Outcome]) -> u64 {
    fnv1a(outcomes.iter().filter_map(|outcome| {
        match outcome {
            Outcome::Answers(bits) => Some(
                bits.iter()
                    .map(|&b| b'0' + u8::from(b))
                    .chain([b'\n'])
                    .collect::<Vec<u8>>(),
            ),
            _ => None,
        }
    }))
}

/// FNV-1a of this executable's bytes. Counts such as `tuples_derived` depend
/// on the implementation, so a ledger is only compared with runs of the same
/// build.
pub fn build_digest() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(fnv1a([bytes]))
}

/// The counts one run of a (workload, seed) must reproduce exactly.
pub type Ledger = BTreeMap<&'static str, u64>;

/// The `STATS` counters a ledger records as deltas over the timed window;
/// it also holds `resident_facts` at the end and `answer_digest`.
pub const STATS_DELTAS: [&str; 6] = [
    "loads",
    "evictions",
    "tuples_derived",
    "maintained_hits",
    "tuples_overdeleted",
    "tuples_rederived",
];

pub fn render(ledger: &Ledger) -> String {
    ledger.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// Compares a run's ledger with the one an earlier run of the same build,
/// workload, seed and length left at `path`, or records it there if it is the
/// first.
pub fn against_earlier_runs(path: &Path, ledger: &Ledger) -> Result<(), String> {
    let text = render(ledger);
    match std::fs::read_to_string(path) {
        Ok(earlier) if earlier == text => Ok(()),
        Ok(earlier) => Err(format!(
            "counts differ from an earlier run ({}):\nearlier:\n{earlier}now:\n{text}",
            path.display()
        )),
        Err(_) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}
