//! Standard-cell libraries: genlib parsing and the two built-in libraries
//! the paper evaluates against (a *simple* mcnc-style library with ≤3-input
//! gates, and a *complex* ASAP7-style library with wide gates and
//! multi-output full/half-adder cells).

use crate::expr::{parse_expr, Expr, ParseExprError};
use std::fmt;

/// One output of a cell: a named function over the cell's pins.
#[derive(Clone, Debug)]
pub struct Output {
    /// Output pin name.
    pub name: String,
    /// Function over the cell's input pins.
    pub expr: Expr,
}

/// A standard cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Cell name (e.g. `nand2`).
    pub name: String,
    /// Area cost used by the mapper.
    pub area: f64,
    /// Input pin names in index order.
    pub pins: Vec<String>,
    /// Outputs (exactly one for genlib cells; two for adder cells).
    pub outputs: Vec<Output>,
}

impl Cell {
    /// Number of input pins.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Whether the cell has more than one output (adder cells).
    pub fn is_multi_output(&self) -> bool {
        self.outputs.len() > 1
    }

    /// Truth table of output `o` over the input pins.
    pub fn truth_table(&self, o: usize) -> u64 {
        self.outputs[o].expr.truth_table(self.num_pins())
    }
}

/// Error from [`Library::from_genlib`].
#[derive(Clone, Debug)]
pub struct ParseGenlibError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseGenlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "genlib parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseGenlibError {}

/// A collection of cells plus the special indices the mapper needs.
#[derive(Clone, Debug)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// The cells.
    pub cells: Vec<Cell>,
}

impl Library {
    /// Parses SIS genlib text (only `GATE` lines are interpreted; `PIN`
    /// lines and comments starting with `#` are skipped).
    ///
    /// # Errors
    ///
    /// Returns [`ParseGenlibError`] with the offending line.
    pub fn from_genlib(name: impl Into<String>, text: &str) -> Result<Library, ParseGenlibError> {
        let mut cells = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("PIN") {
                continue;
            }
            let Some(rest) = line.strip_prefix("GATE") else {
                continue;
            };
            let err = |message: String| ParseGenlibError {
                line: lineno + 1,
                message,
            };
            let mut parts = rest.split_whitespace();
            let cell_name = parts
                .next()
                .ok_or_else(|| err("missing gate name".into()))?;
            let area: f64 = parts
                .next()
                .ok_or_else(|| err("missing area".into()))?
                .parse()
                .map_err(|e| err(format!("bad area: {e}")))?;
            let formula = parts.collect::<Vec<_>>().join(" ");
            if formula.is_empty() {
                return Err(err("missing formula".into()));
            }
            let formula = formula.as_str();
            let formula = formula.split(';').next().unwrap_or(formula).trim();
            let (out_name, body) = formula
                .split_once('=')
                .ok_or_else(|| err("formula must be OUT=expr".into()))?;
            let mut pins = Vec::new();
            let expr =
                parse_expr(body, &mut pins).map_err(|e: ParseExprError| err(e.to_string()))?;
            cells.push(Cell {
                name: cell_name.to_string(),
                area,
                pins,
                outputs: vec![Output {
                    name: out_name.trim().to_string(),
                    expr,
                }],
            });
        }
        if cells.is_empty() {
            return Err(ParseGenlibError {
                line: 0,
                message: "no GATE lines found".into(),
            });
        }
        Ok(Library {
            name: name.into(),
            cells,
        })
    }

    /// The mcnc-style *simple* library: inverter plus ≤3-input gates, the
    /// "reduced standard-cell library from SIS distribution" of §IV-A.
    pub fn simple() -> Library {
        const TEXT: &str = r#"
# mcnc-style reduced library (gate input size <= 3)
GATE inv1   1  O=!a;
GATE nand2  2  O=!(a*b);
GATE nor2   2  O=!(a+b);
GATE and2   3  O=a*b;
GATE or2    3  O=a+b;
GATE xor2   5  O=a^b;
GATE xnor2  5  O=!(a^b);
GATE nand3  3  O=!(a*b*c);
GATE nor3   3  O=!(a+b+c);
GATE and3   4  O=a*b*c;
GATE or3    4  O=a+b+c;
GATE aoi21  3  O=!(a*b+c);
GATE oai21  3  O=!((a+b)*c);
"#;
        Library::from_genlib("simple-mcnc", TEXT).expect("built-in library parses")
    }

    /// The ASAP7-style *complex* library: wide gates, and-or/or-and
    /// composites, MAJ/XOR3 and — crucially for the paper's Figure 5 —
    /// multi-output full- and half-adder cells that absorb whole adder
    /// bitslices.
    pub fn complex7nm() -> Library {
        const TEXT: &str = r#"
# ASAP7-style library (subset): wide gates + composite cells
GATE INVx1    1   O=!a;
GATE NAND2x1  2   O=!(a*b);
GATE NAND3x1  3   O=!(a*b*c);
GATE NAND4x1  4   O=!(a*b*c*d);
GATE NOR2x1   2   O=!(a+b);
GATE NOR3x1   3   O=!(a+b+c);
GATE NOR4x1   4   O=!(a+b+c+d);
GATE AND2x1   3   O=a*b;
GATE AND3x1   4   O=a*b*c;
GATE AND4x1   5   O=a*b*c*d;
GATE OR2x1    3   O=a+b;
GATE OR3x1    4   O=a+b+c;
GATE OR4x1    5   O=a+b+c+d;
GATE XOR2x1   5   O=a^b;
GATE XNOR2x1  5   O=!(a^b);
GATE XOR3x1   8   O=a^b^c;
GATE XNOR3x1  8   O=!(a^b^c);
GATE MAJx2    7   O=a*b+a*c+b*c;
GATE MAJIx2   7   O=!(a*b+a*c+b*c);
GATE AO21x1   4   O=a*b+c;
GATE AO22x1   5   O=a*b+c*d;
GATE OA21x1   4   O=(a+b)*c;
GATE OA22x1   5   O=(a+b)*(c+d);
GATE AOI21x1  3   O=!(a*b+c);
GATE AOI22x1  4   O=!(a*b+c*d);
GATE AOI211x1 4   O=!(a*b+c+d);
GATE OAI21x1  3   O=!((a+b)*c);
GATE OAI22x1  4   O=!((a+b)*(c+d));
GATE OAI211x1 4   O=!((a+b)*c*d);
GATE MUX2x1   6   O=s*a+!s*b;
GATE MUXI2x1  6   O=!(s*a+!s*b);
"#;
        let mut lib = Library::from_genlib("complex-asap7", TEXT).expect("built-in library parses");
        // Multi-output adder cells (genlib cannot express these; ASAP7's
        // FADDx1 / HADDx1 equivalents are added programmatically).
        let mut fa_pins = Vec::new();
        let fa_sum = parse_expr("a^b^c", &mut fa_pins).unwrap();
        let fa_carry = parse_expr("a*b+a*c+b*c", &mut fa_pins).unwrap();
        lib.cells.push(Cell {
            name: "FADDx1".into(),
            area: 11.0,
            pins: fa_pins,
            outputs: vec![
                Output {
                    name: "S".into(),
                    expr: fa_sum,
                },
                Output {
                    name: "CO".into(),
                    expr: fa_carry,
                },
            ],
        });
        let mut ha_pins = Vec::new();
        let ha_sum = parse_expr("a^b", &mut ha_pins).unwrap();
        let ha_carry = parse_expr("a*b", &mut ha_pins).unwrap();
        lib.cells.push(Cell {
            name: "HADDx1".into(),
            area: 7.0,
            pins: ha_pins,
            outputs: vec![
                Output {
                    name: "S".into(),
                    expr: ha_sum,
                },
                Output {
                    name: "CO".into(),
                    expr: ha_carry,
                },
            ],
        });
        lib
    }

    /// Index of the cheapest inverter cell.
    ///
    /// # Panics
    ///
    /// Panics if the library has no inverter (mapping requires one).
    pub fn inverter(&self) -> usize {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_multi_output() && c.num_pins() == 1 && c.truth_table(0) == 0x1)
            .min_by(|a, b| a.1.area.total_cmp(&b.1.area))
            .map(|(i, _)| i)
            .expect("library must contain an inverter")
    }

    /// Indices of multi-output adder cells `(full, half)` if present.
    pub fn adder_cells(&self) -> (Option<usize>, Option<usize>) {
        let mut full = None;
        let mut half = None;
        for (i, c) in self.cells.iter().enumerate() {
            if c.is_multi_output() && c.num_pins() == 3 {
                full = Some(i);
            }
            if c.is_multi_output() && c.num_pins() == 2 {
                half = Some(i);
            }
        }
        (full, half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamora_aig::tt;

    #[test]
    fn builtin_libraries_parse() {
        // Widest single-output cell.
        let max_pins = |lib: &Library| {
            lib.cells
                .iter()
                .filter(|c| !c.is_multi_output())
                .map(Cell::num_pins)
                .max()
                .unwrap_or(0)
        };
        let simple = Library::simple();
        assert_eq!(simple.cells.len(), 13);
        assert!(max_pins(&simple) <= 3, "simple library is <=3-input");
        let complex = Library::complex7nm();
        assert!(complex.cells.len() > 30);
        assert_eq!(max_pins(&complex), 4);
        let (fa, ha) = complex.adder_cells();
        assert!(fa.is_some() && ha.is_some());
        assert_eq!(Library::simple().adder_cells(), (None, None));
    }

    #[test]
    fn cell_truth_tables() {
        let lib = Library::simple();
        let nand2 = lib.cells.iter().find(|c| c.name == "nand2").unwrap();
        assert_eq!(nand2.truth_table(0), !tt::AND2 & tt::mask(2));
        let aoi = lib.cells.iter().find(|c| c.name == "aoi21").unwrap();
        assert_eq!(
            aoi.truth_table(0),
            !(tt::var(0) & tt::var(1) | tt::var(2)) & tt::mask(3)
        );
    }

    #[test]
    fn adder_cell_functions() {
        let lib = Library::complex7nm();
        let (fa, ha) = lib.adder_cells();
        let fa = &lib.cells[fa.unwrap()];
        assert_eq!(fa.truth_table(0), tt::XOR3);
        assert_eq!(fa.truth_table(1), tt::MAJ3);
        let ha = &lib.cells[ha.unwrap()];
        assert_eq!(ha.truth_table(0), tt::XOR2);
        assert_eq!(ha.truth_table(1), tt::AND2);
    }

    #[test]
    fn inverter_lookup() {
        assert_eq!(
            Library::simple().cells[Library::simple().inverter()].name,
            "inv1"
        );
        let lib = Library::complex7nm();
        assert_eq!(lib.cells[lib.inverter()].name, "INVx1");
    }

    #[test]
    fn genlib_errors_carry_line_numbers() {
        let bad = "GATE foo xyz O=a;";
        let e = Library::from_genlib("bad", bad).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("area"));
        assert!(Library::from_genlib("empty", "# nothing\n").is_err());
        let bad2 = "GATE g 1 Oa*b;";
        assert!(Library::from_genlib("bad2", bad2).is_err());
    }

    #[test]
    fn pin_lines_are_skipped() {
        let text = "GATE inv 1 O=!a;\nPIN * INV 1 999 1 0.2 1 0.2\n";
        let lib = Library::from_genlib("t", text).unwrap();
        assert_eq!(lib.cells.len(), 1);
        assert_eq!(lib.cells[0].pins, vec!["a"]);
    }
}
