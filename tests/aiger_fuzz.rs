//! Fuzz hardening for the AIGER reader (vendored proptest shim): no byte
//! sequence may panic `aiger::read` or make it allocate on the header's
//! word. Every input comes back `Ok` or as a typed [`ParseAigerError`],
//! and a counting allocator bounds the bytes requested meanwhile by a
//! small multiple of the input length — plus 12 bytes per declared input
//! when (and only when) the header is one the reader accepts, because
//! inputs of a binary file occupy no bytes (`aiger::MAX_INPUTS` caps
//! them).
//!
//! The multiple: a two-byte binary gate becomes an 8-byte node and a
//! strash slot of up to ~30 bytes, and a short ASCII line passes through
//! two small `String`s, so well-formed files already need ~20x their
//! size; 32x leaves room for the doubling of the vectors that grow.
//!
//! Run under `--release` in CI as well: unchecked header sums wrap there
//! where a debug build panics.

use gamora::{GamoraReasoner, ModelDepth, PostProcess, ReasonerConfig};
use gamora_aig::aiger::{self, ParseAigerError, MAX_INPUTS, MAX_VAR};
use gamora_aig::Aig;
use gamora_serve::cache::GraphSignature;
use gamora_serve::scheduler::{AnalysisKind, ServeConfig, Server};
use proptest::prelude::*;
use request_counting::counting;
use std::sync::OnceLock;

#[path = "support/request_counting.rs"]
mod request_counting;

/// Reads `bytes` and returns the result with the bytes this thread
/// requested from the allocator meanwhile.
fn read_counting(bytes: &[u8]) -> (Result<Aig, ParseAigerError>, usize) {
    let (result, counts) = counting(|| aiger::read(bytes));
    (result, counts.requested)
}

/// Reading `bytes` may request at most this much; `believed_inputs` is
/// the input count of a header the reader accepts (0 for one it must
/// reject).
fn allocation_bound(bytes: &[u8], believed_inputs: u32) -> usize {
    32 * bytes.len() + 4096 + 12 * believed_inputs as usize
}

fn assert_bounded(bytes: &[u8], believed_inputs: u32, what: &str) -> Result<Aig, ParseAigerError> {
    let (result, requested) = read_counting(bytes);
    assert!(
        requested <= allocation_bound(bytes, believed_inputs),
        "{what}: reading {} bytes requested {requested} bytes",
        bytes.len()
    );
    result
}

/// An 8-bit CSA multiplier in both encodings, written once.
fn csa8() -> &'static [(Vec<u8>, u32)] {
    static FILES: OnceLock<Vec<(Vec<u8>, u32)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let aig = gamora_circuits::csa_multiplier(8).aig;
        let inputs = aig.num_inputs() as u32;
        let (mut ascii, mut binary) = (Vec::new(), Vec::new());
        aiger::write_ascii(&aig, &mut ascii).unwrap();
        aiger::write_binary(&aig, &mut binary).unwrap();
        vec![(ascii, inputs), (binary, inputs)]
    })
}

/// The three headers that aborted or panicked the reader: 32 GB reserved
/// on the word of `I` (binary) or `A` (ASCII), and `I + A` overflowing
/// `u32`.
#[test]
fn hostile_headers_are_typed_errors_under_the_bound() {
    for header in [
        "aig 4000000000 4000000000 0 0 0\n",
        "aag 4000000000 0 0 0 4000000000\n",
    ] {
        let err = assert_bounded(header.as_bytes(), 0, header).expect_err(header);
        assert!(
            matches!(
                err,
                ParseAigerError::TooLarge {
                    field: "M",
                    declared: 4_000_000_000,
                    limit: MAX_VAR
                }
            ),
            "{header:?}: {err}"
        );
    }
    let header = "aag 1 4294967295 0 0 2\n";
    let err = assert_bounded(header.as_bytes(), 0, header).expect_err(header);
    assert!(matches!(err, ParseAigerError::Malformed(_)), "{err}");

    // A variable index that fits, an input count the reader will not
    // take on trust.
    let header = format!("aig {0} {0} 0 0 0\n", MAX_INPUTS + 1);
    let err = assert_bounded(header.as_bytes(), 0, &header).expect_err(&header);
    assert!(
        matches!(err, ParseAigerError::TooLarge { field: "I", .. }),
        "{err}"
    );
    assert!(err.to_string().contains("too large"), "{err}");

    // Outputs and gates the bytes do not back are never reserved for.
    for header in ["aig 0 0 0 4000000000 0\n", "aag 1000000 0 0 0 1000000\n"] {
        let err = assert_bounded(header.as_bytes(), 0, header).expect_err(header);
        assert!(matches!(err, ParseAigerError::Malformed(_)), "{err}");
    }

    // The largest accepted input count is honoured, at 12 bytes an input.
    let header = format!("aig {0} {0} 0 0 0\n", MAX_INPUTS);
    let aig = assert_bounded(header.as_bytes(), MAX_INPUTS, &header).expect("inputs only");
    assert_eq!(aig.num_inputs(), MAX_INPUTS as usize);
}

/// Every `u32` corner (and the first value past `u32`) in each of the
/// five header fields of both encodings, alone and — for `I` and `A` —
/// with `M` moved along so the header stays consistent.
#[test]
fn header_corners_never_panic_or_overallocate() {
    let corners: Vec<u64> = [0u64, 1, 2, 1 << 20, 1 << 31, 4_000_000_000, 1 << 32]
        .into_iter()
        .flat_map(|c| [c.saturating_sub(1), c, c + 1])
        .collect();
    let base = [5u64, 2, 0, 1, 3]; // M I L O A
    for format in ["aag", "aig"] {
        for field in 0..5 {
            for &corner in &corners {
                let mut alone = base;
                alone[field] = corner;
                let mut consistent = alone;
                consistent[0] = consistent[1] + consistent[4];
                for fields in [alone, consistent] {
                    let [m, i, l, o, a] = fields;
                    let header = format!("{format} {m} {i} {l} {o} {a}\n");
                    let accepted = fields.iter().all(|&f| f <= u64::from(u32::MAX))
                        && l == 0
                        && m == i + a
                        && m <= u64::from(MAX_VAR)
                        && i <= u64::from(MAX_INPUTS);
                    let believed = if accepted { i as u32 } else { 0 };
                    let result = assert_bounded(header.as_bytes(), believed, &header);
                    if !accepted {
                        assert!(result.is_err(), "{header:?} must be rejected");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any prefix of a written file parses or is a typed error.
    #[test]
    fn truncations_never_panic_or_overallocate(which in 0usize..2, cut in any::<u64>()) {
        let (base, inputs) = &csa8()[which];
        let cut = cut as usize % base.len();
        let _ = assert_bounded(&base[..cut], *inputs, "truncation");
    }

    /// Any single-byte change of a written file parses or is a typed
    /// error. (One byte cannot change a header count and keep
    /// `M == I + A`, so the believed input count is the file's own.)
    #[test]
    fn byte_mutations_never_panic_or_overallocate(
        which in 0usize..2,
        pos in any::<u64>(),
        value in any::<u8>(),
    ) {
        let (base, inputs) = &csa8()[which];
        let mut bytes = base.clone();
        let pos = pos as usize % bytes.len();
        bytes[pos] = value;
        let _ = assert_bounded(&bytes, *inputs, "mutation");
    }
}

/// The unmutated files stay inside the bound too, and parse to what was
/// written.
#[test]
fn written_files_parse_under_the_bound() {
    let aig = gamora_circuits::csa_multiplier(8).aig;
    for (bytes, inputs) in csa8() {
        let back = assert_bounded(bytes, *inputs, "written file").expect("round trip");
        assert_eq!(
            (back.num_inputs(), back.num_ands(), back.num_outputs()),
            (aig.num_inputs(), aig.num_ands(), aig.num_outputs())
        );
    }
}

/// Structurally odd files the reader accepts, named. None of these comes
/// out of a strashing writer, but each is valid AIGER.
const ODD_FILES: [(&str, &str); 11] = [
    ("and with itself", "aag 2 1 0 1 1\n2\n4\n4 2 2\n"),
    ("and with its complement", "aag 2 1 0 1 1\n2\n4\n4 2 3\n"),
    ("constant-true fanin", "aag 3 2 0 1 1\n2\n4\n6\n6 2 1\n"),
    ("constant-false fanin", "aag 3 2 0 1 1\n2\n4\n6\n6 4 0\n"),
    (
        "descending fanins",
        "aag 4 2 0 1 2\n2\n4\n8\n6 4 2\n8 6 3\n",
    ),
    ("duplicate and", "aag 4 2 0 2 2\n2\n4\n6\n8\n6 2 4\n8 2 4\n"),
    ("dangling and", "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n8 3 5\n"),
    ("duplicate outputs", "aag 3 2 0 3 1\n2\n4\n6\n6\n7\n6 2 4\n"),
    ("constant outputs", "aag 3 2 0 3 1\n2\n4\n0\n1\n6\n6 2 4\n"),
    ("no outputs", "aag 3 2 0 0 1\n2\n4\n6 2 4\n"),
    ("empty", "aag 0 0 0 0 0\n"),
];

/// Past the parser: every odd file goes through inference, the classical
/// post-process, the cache signature, the exact analysis and a served
/// extraction job (twice, so the second comes from the cache) without a
/// panic, and each answer covers every node.
#[test]
fn odd_but_accepted_files_are_served_past_the_parser() {
    let reasoner = GamoraReasoner::new(ReasonerConfig {
        depth: ModelDepth::Custom {
            layers: 2,
            hidden: 8,
        },
        ..ReasonerConfig::default()
    });
    let aigs: Vec<Aig> = ODD_FILES
        .iter()
        .map(|(what, text)| aiger::read(text.as_bytes()).unwrap_or_else(|e| panic!("{what}: {e}")))
        .collect();
    let mut post = PostProcess::default();
    for ((what, _), aig) in ODD_FILES.iter().zip(&aigs) {
        let n = aig.num_nodes();
        let preds = reasoner.predict(aig);
        assert_eq!(preds.num_nodes(), n, "{what}: predict");
        for adder in post.run(aig, &preds) {
            assert!(adder.sum.index() < n && adder.carry.index() < n, "{what}");
        }
        assert_eq!(
            GraphSignature::of(aig).node_hashes.len(),
            n,
            "{what}: signature"
        );
        let labels = gamora_exact::analyze(aig).labels;
        assert_eq!(
            (
                labels.root_leaf.len(),
                labels.is_xor.len(),
                labels.is_maj.len()
            ),
            (n, n, n),
            "{what}: analyze"
        );
    }

    let server = Server::start(
        reasoner,
        ServeConfig {
            max_batch: 1,
            workers: 1,
            linger_micros: 0,
            ..ServeConfig::default()
        },
    );
    for round in 0..2 {
        for ((what, _), aig) in ODD_FILES.iter().zip(&aigs) {
            let out = server
                .submit(aig.clone(), AnalysisKind::ExtractAdders)
                .expect("admitted")
                .wait()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(out.predictions.num_nodes(), aig.num_nodes(), "{what}");
            assert!(out.adders.is_some(), "{what}");
            assert_eq!(out.cache_hit, round == 1, "{what}: round {round}");
        }
    }
    assert_eq!(server.shutdown().jobs, 2 * ODD_FILES.len() as u64);
}
