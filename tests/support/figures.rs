//! The paper's figures and this reproduction's ablations as one checked
//! table. `REPRO.md` at the workspace root holds one row per claim: the
//! setup, the paper's number, the number this substrate measures, the
//! bound that number must stay inside and the verdict the bound carries.
//!
//! `tests/end_to_end.rs` includes this file with
//! `#[path = "support/figures.rs"] mod figures;`. Its figure tests each
//! check the rows of one recipe; `paper_figures_hold_their_recorded_bounds`
//! checks every row whose bound is numeric and prints the table with the
//! fresh numbers, so
//! `cargo test -q --test end_to_end paper_figures -- --nocapture`
//! regenerates it. A measured number outside its bound fails the test,
//! so a verdict can only change in a `REPRO.md` diff. A row whose bound
//! names another instrument (`gamora-perf`, a guard test) is printed as
//! it stands.
//!
//! Each recipe is trained once per test run: its rows are kept in a
//! `OnceLock` that every test reading them shares. Every fit uses the
//! default seed, so the numbers are the same on every host and kernel
//! variant.

use std::sync::OnceLock;

use gamora::{
    score_predictions, Direction, FeatureMode, GamoraReasoner, ModelDepth, ReasonerConfig,
    TrainConfig,
};
use gamora_aig::Aig;
use gamora_circuits::{booth_multiplier, csa_multiplier};
use gamora_exact::Labels;
use gamora_techmap::{map, Library, MapParams};

const REPRO: &str = include_str!("../../REPRO.md");
const HEADER: &str = "| row | setup | paper | here | bound | verdict |";

/// One measured row: its id, the number its bound checks, and the
/// `here` cell printed for it (the number, then any context).
pub struct Measured {
    id: &'static str,
    value: f64,
    here: String,
}

/// A percentage row.
fn pct(id: &'static str, value: f64, context: &str) -> Measured {
    let here = format!("{value:.2}{context}");
    Measured { id, value, here }
}

/// A difference in percentage points between two accuracies.
fn gap(id: &'static str, a: f64, b: f64) -> Measured {
    let value = a - b;
    let here = format!("{value:+.2} ({a:.2} vs {b:.2})");
    Measured { id, value, here }
}

/// An evaluation subject with its exact labels, computed once.
struct Subject {
    aig: Aig,
    labels: Labels,
}

impl Subject {
    fn new(aig: Aig) -> Subject {
        let labels = gamora_exact::analyze(&aig).labels;
        Subject { aig, labels }
    }

    /// Mean accuracy over the three tasks, in percent.
    fn score(&self, model: &GamoraReasoner) -> f64 {
        100.0 * score_predictions(&model.predict(&self.aig), &self.labels).mean()
    }
}

fn fit(train: &[Aig], config: ReasonerConfig, train_config: TrainConfig) -> GamoraReasoner {
    let refs: Vec<&Aig> = train.iter().collect();
    let mut reasoner = GamoraReasoner::new(config);
    reasoner.fit(&refs, &train_config);
    reasoner
}

fn epochs(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        ..TrainConfig::default()
    }
}

fn csa_set(widths: &[usize]) -> Vec<Aig> {
    widths.iter().map(|&b| csa_multiplier(b).aig).collect()
}

fn mapped(aig: &Aig, lib: &Library) -> Aig {
    map(aig, lib, &MapParams::default()).to_aig()
}

/// The base recipe's training set: CSA 3–6.
fn base_train() -> Vec<Aig> {
    csa_set(&[3, 4, 5, 6])
}

/// The base recipe's subject, CSA-12.
fn csa12() -> &'static Subject {
    static SUBJECT: OnceLock<Subject> = OnceLock::new();
    SUBJECT.get_or_init(|| Subject::new(csa_multiplier(12).aig))
}

/// The base recipe: the shallow multi-task model on CSA 3–6 for 200
/// epochs. Every other CSA-12 row changes one thing in it.
fn base() -> &'static GamoraReasoner {
    static BASE: OnceLock<GamoraReasoner> = OnceLock::new();
    BASE.get_or_init(|| fit(&base_train(), ReasonerConfig::default(), epochs(200)))
}

/// A variant of the base recipe, scored on CSA-12.
fn variant(config: ReasonerConfig, train_config: TrainConfig) -> f64 {
    csa12().score(&fit(&base_train(), config, train_config))
}

/// The headline generalisation row: CSA 3–8 for 300 epochs, scored on
/// CSA-32.
pub fn small_to_large_rows() -> &'static [Measured] {
    static ROWS: OnceLock<Vec<Measured>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let model = fit(
            &csa_set(&[3, 4, 5, 6, 7, 8]),
            ReasonerConfig::default(),
            epochs(300),
        );
        let large = Subject::new(csa_multiplier(32).aig).score(&model);
        vec![pct("small-to-large", large, "")]
    })
}

/// Fig. 6: the shallow model and a 6-layer, 48-wide one on Booth 6/8/10
/// for 260 epochs, scored on Booth-16.
pub fn booth_rows() -> &'static [Measured] {
    static ROWS: OnceLock<Vec<Measured>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let train: Vec<Aig> = [6, 8, 10]
            .iter()
            .map(|&b| booth_multiplier(b).aig)
            .collect();
        let subject = Subject::new(booth_multiplier(16).aig);
        let score = |depth| {
            let config = ReasonerConfig {
                depth,
                ..ReasonerConfig::default()
            };
            subject.score(&fit(&train, config, epochs(260)))
        };
        let shallow = score(ModelDepth::Shallow);
        let deeper = score(ModelDepth::Custom {
            layers: 6,
            hidden: 48,
        });
        vec![
            pct("fig6-shallow", shallow, ""),
            pct("fig6-6x48", deeper, ""),
        ]
    })
}

/// The CSA-12 rows: the base recipe itself (Fig. 4's full model), then
/// one change to it each: the structural-only features of Fig. 4, Fig. 5's
/// mapped netlists, and the message-direction and α ablations.
fn ablation_rows() -> &'static [Measured] {
    static ROWS: OnceLock<Vec<Measured>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let full = csa12().score(base());
        let structural = variant(
            ReasonerConfig {
                feature_mode: FeatureMode::Structural,
                ..ReasonerConfig::default()
            },
            epochs(200),
        );
        let direction = |direction| {
            let config = ReasonerConfig {
                direction,
                ..ReasonerConfig::default()
            };
            variant(config, epochs(200))
        };
        let (fanin, fanout) = (direction(Direction::Fanin), direction(Direction::Fanout));
        let alpha = |alpha| {
            let train_config = TrainConfig {
                task_weights: vec![alpha, 1.0, 1.0],
                ..epochs(200)
            };
            variant(ReasonerConfig::default(), train_config)
        };
        assert_eq!(
            TrainConfig::default().task_weights[0],
            0.8,
            "the base fit is the α = 0.8 row"
        );
        let (alpha_low, alpha_high) = (alpha(0.2), alpha(2.0));

        let mut rows = vec![
            pct("fig4-full", full, ""),
            gap("fig4-features", full, structural),
        ];
        // Fig. 5: a model retrained on mapped netlists against the base
        // model trained without mapping, both on the mapped CSA-12.
        let [simple, complex] = [Library::simple(), Library::complex7nm()].map(|lib| {
            let train: Vec<Aig> = base_train().iter().map(|aig| mapped(aig, &lib)).collect();
            let subject = Subject::new(mapped(&csa12().aig, &lib));
            let retrained = subject.score(&fit(&train, ReasonerConfig::default(), epochs(200)));
            (retrained, subject.score(base()))
        });
        rows.push(pct(
            "fig5-simple",
            simple.0,
            &format!(" (trained without mapping: {:.2})", simple.1),
        ));
        rows.push(gap("fig5-complex", complex.0, complex.1));
        rows.extend([
            gap("direction-fanin", full, fanin),
            gap("direction-fanout", full, fanout),
            gap("alpha-0.2", full, alpha_low),
            gap("alpha-2.0", full, alpha_high),
        ]);
        rows
    })
}

/// A row's bound: `> a`, `>= a`, `<= b` or `a .. b` (inclusive), in the
/// row's unit.
enum Bound {
    Above(f64),
    AtLeast(f64),
    AtMost(f64),
    Between(f64, f64),
}

impl Bound {
    /// `None` when the cell names an instrument instead of a range.
    fn parse(cell: &str) -> Option<Bound> {
        let cell = cell.trim_matches('`');
        let num = |s: &str| s.trim().parse::<f64>().ok();
        if let Some(rest) = cell.strip_prefix(">=") {
            num(rest).map(Bound::AtLeast)
        } else if let Some(rest) = cell.strip_prefix('>') {
            num(rest).map(Bound::Above)
        } else if let Some(rest) = cell.strip_prefix("<=") {
            num(rest).map(Bound::AtMost)
        } else {
            let (lo, hi) = cell.split_once("..")?;
            Some(Bound::Between(num(lo)?, num(hi)?))
        }
    }

    fn holds(&self, x: f64) -> bool {
        match *self {
            Bound::Above(a) => x > a,
            Bound::AtLeast(a) => x >= a,
            Bound::AtMost(b) => x <= b,
            Bound::Between(a, b) => (a..=b).contains(&x),
        }
    }
}

/// The table rows of `REPRO.md`, split into cells (header and rule
/// excluded).
fn table_rows() -> Vec<Vec<&'static str>> {
    let rows: Vec<Vec<&str>> = REPRO
        .lines()
        .skip_while(|l| *l != HEADER)
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split(" | ").map(str::trim).collect())
        .collect();
    assert!(!rows.is_empty(), "REPRO.md has no table under {HEADER}");
    for row in &rows {
        assert_eq!(row.len(), 6, "REPRO.md row {row:?} needs six cells");
    }
    rows
}

/// The leading number of a `here` cell.
fn recorded(here: &str) -> f64 {
    let first = here.split_whitespace().next().unwrap_or_default();
    first
        .trim_start_matches('+')
        .parse()
        .unwrap_or_else(|_| panic!("`here` cell {here:?} does not start with a number"))
}

/// Checks `m` against its `REPRO.md` row: the row's bound must be a
/// range that holds the row's own recorded number. Returns the failure
/// when the measured number is outside it.
fn check(row: &[&str], m: &Measured) -> Option<String> {
    let (id, bound_cell) = (row[0], row[4]);
    let bound = Bound::parse(bound_cell)
        .unwrap_or_else(|| panic!("row {id} is measured here, so its bound must be a range"));
    assert!(
        bound.holds(recorded(row[3])),
        "REPRO.md row {id}: its own number {} is outside {bound_cell}",
        row[3]
    );
    (!bound.holds(m.value)).then(|| format!("{id}: {} is outside {bound_cell}", m.here))
}

fn assert_no_failures(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "rows out of bound:\n{}",
        failures.join("\n")
    );
}

/// Fails unless every row in `measured` stays inside its `REPRO.md`
/// bound.
pub fn assert_rows_hold(measured: &[Measured]) {
    let rows = table_rows();
    let failures: Vec<String> = measured
        .iter()
        .filter_map(|m| {
            let row = rows
                .iter()
                .find(|row| row[0] == m.id)
                .unwrap_or_else(|| panic!("measured row {} is missing from REPRO.md", m.id));
            check(row, m)
        })
        .collect();
    assert_no_failures(&failures);
}

/// Measures every recipe, fails unless each numeric row of `REPRO.md` is
/// measured and inside its bound, and prints the table with the fresh
/// numbers.
pub fn assert_table_holds() {
    let rows = table_rows();
    let measured: Vec<&Measured> = std::thread::scope(|s| {
        let booth = s.spawn(booth_rows);
        let mut measured: Vec<&Measured> = ablation_rows().iter().collect();
        measured.extend(small_to_large_rows());
        measured.extend(booth.join().expect("Booth fits panicked"));
        measured
    });

    let mut failures = Vec::new();
    let mut used = 0;
    println!("{HEADER}\n|---|---|---|---|---|---|");
    for row in &rows {
        let mut cells = row.clone();
        let m = measured.iter().find(|m| m.id == row[0]);
        match (Bound::parse(row[4]), m) {
            (None, None) => {}
            (Some(_), None) => panic!("REPRO.md row {} has a range but no measurement", row[0]),
            (_, Some(m)) => {
                used += 1;
                failures.extend(check(row, m));
                cells[3] = &m.here;
            }
        }
        println!("| {} |", cells.join(" | "));
    }
    assert_eq!(
        used,
        measured.len(),
        "a measured row is missing from REPRO.md"
    );
    assert_no_failures(&failures);
}
