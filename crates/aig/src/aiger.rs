//! AIGER file format support (ASCII `aag` and binary `aig`, combinational).
//!
//! The AIGER format is the interchange format used by ABC and the hardware
//! model-checking community. Only combinational networks are supported
//! (latches are rejected), which is all the paper's workloads need.
//!
//! Reading preserves structure exactly (no re-hashing), so a write/read
//! round-trip is the identity on node counts and literals.

use crate::{Aig, Lit, NodeId};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// Errors produced by the AIGER reader.
#[derive(Debug)]
pub enum ParseAigerError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural or syntactic problem, with a description.
    Malformed(String),
    /// The file contains latches, which this reader does not support.
    Sequential,
    /// A header count is beyond what this reader accepts.
    TooLarge {
        /// The header field (`"M"` or `"I"`).
        field: &'static str,
        /// The value the header declares.
        declared: u32,
        /// The largest accepted value.
        limit: u32,
    },
}

/// Largest variable index a header may declare: the literal `2 * M + 1`
/// must fit the `u32` of a [`Lit`].
pub const MAX_VAR: u32 = (1 << 31) - 1;

/// Largest input count a header may declare. Inputs of a binary file
/// occupy no bytes, so their number is the one quantity the reader takes
/// on the header's word; the cap bounds what a header alone can make it
/// allocate (12 bytes an input, 12 MiB in all). Every other vector is
/// reserved by the bytes at hand and grows with what is parsed.
pub const MAX_INPUTS: u32 = 1 << 20;

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAigerError::Io(e) => write!(f, "i/o error: {e}"),
            ParseAigerError::Malformed(m) => write!(f, "malformed aiger file: {m}"),
            ParseAigerError::Sequential => write!(f, "sequential aiger files are not supported"),
            ParseAigerError::TooLarge {
                field,
                declared,
                limit,
            } => write!(
                f,
                "aiger file too large: header declares {field} = {declared}, limit {limit}"
            ),
        }
    }
}

impl std::error::Error for ParseAigerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseAigerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseAigerError {
    fn from(e: io::Error) -> Self {
        ParseAigerError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ParseAigerError {
    ParseAigerError::Malformed(msg.into())
}

/// Writes the AIG in ASCII AIGER (`aag`) format.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_ascii<W: Write>(aig: &Aig, mut w: W) -> io::Result<()> {
    let m = aig.num_nodes() - 1; // maximum variable index
    writeln!(
        w,
        "aag {} {} 0 {} {}",
        m,
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands()
    )?;
    for &i in aig.inputs() {
        writeln!(w, "{}", i.lit().raw())?;
    }
    for &o in aig.outputs() {
        writeln!(w, "{}", o.raw())?;
    }
    for n in aig.and_ids() {
        let (f0, f1) = aig.fanins(n);
        writeln!(w, "{} {} {}", n.lit().raw(), f0.raw(), f1.raw())?;
    }
    if !aig.name().is_empty() {
        writeln!(w, "c")?;
        writeln!(w, "{}", aig.name())?;
    }
    Ok(())
}

/// Writes the AIG in binary AIGER (`aig`) format.
///
/// Binary AIGER requires inputs to occupy the lowest variable indices; if
/// this AIG interleaves inputs and AND nodes the function renumbers
/// internally (function-preserving).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_binary<W: Write>(aig: &Aig, mut w: W) -> io::Result<()> {
    // Renumber so inputs come first (identity if already canonical).
    let mut order: Vec<u32> = vec![0; aig.num_nodes()];
    let mut next = 1u32;
    for &i in aig.inputs() {
        order[i.index()] = next;
        next += 1;
    }
    for n in aig.and_ids() {
        order[n.index()] = next;
        next += 1;
    }
    let map = |l: Lit| -> u32 { order[l.var().index()] << 1 | l.is_complement() as u32 };

    let m = aig.num_nodes() - 1;
    writeln!(
        w,
        "aig {} {} 0 {} {}",
        m,
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands()
    )?;
    for &o in aig.outputs() {
        writeln!(w, "{}", map(o))?;
    }
    for n in aig.and_ids() {
        let (f0, f1) = aig.fanins(n);
        let lhs = order[n.index()] << 1;
        let (r0, r1) = (map(f0).max(map(f1)), map(f0).min(map(f1)));
        debug_assert!(lhs > r0 && r0 >= r1);
        write_delta(&mut w, lhs - r0)?;
        write_delta(&mut w, r0 - r1)?;
    }
    if !aig.name().is_empty() {
        writeln!(w, "c")?;
        writeln!(w, "{}", aig.name())?;
    }
    Ok(())
}

fn write_delta<W: Write>(w: &mut W, mut delta: u32) -> io::Result<()> {
    loop {
        let mut byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta != 0 {
            byte |= 0x80;
        }
        w.write_all(&[byte])?;
        if delta == 0 {
            return Ok(());
        }
    }
}

fn read_delta<R: Read>(r: &mut R) -> Result<u32, ParseAigerError> {
    let mut value = 0u32;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let payload = (byte[0] & 0x7F) as u32;
        // The fifth byte holds bits 28..32: any of its upper three payload
        // bits would land past bit 31.
        if shift >= 32 || (shift == 28 && payload > 0x0F) {
            return Err(malformed("delta overflow"));
        }
        value |= payload << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads an AIGER file, auto-detecting ASCII vs binary from the header.
///
/// # Errors
///
/// Returns [`ParseAigerError`] on I/O failure, malformed content, or
/// sequential (latch-bearing) files.
pub fn read<R: BufRead>(mut r: R) -> Result<Aig, ParseAigerError> {
    let mut header = String::new();
    r.read_line(&mut header)?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 6 {
        return Err(malformed("header must be '<fmt> M I L O A'"));
    }
    let parse = |s: &str| -> Result<u32, ParseAigerError> {
        s.parse()
            .map_err(|_| malformed(format!("bad number '{s}'")))
    };
    let (m, i, l, o, a) = (
        parse(fields[1])?,
        parse(fields[2])?,
        parse(fields[3])?,
        parse(fields[4])?,
        parse(fields[5])?,
    );
    if l != 0 {
        return Err(ParseAigerError::Sequential);
    }
    if u64::from(m) != u64::from(i) + u64::from(a) {
        return Err(malformed(format!("M ({m}) != I ({i}) + A ({a})")));
    }
    // From here on `I + A == M <= MAX_VAR`, so every literal the bodies
    // compute (`2 * var`, at most `2 * M`) fits a `u32`.
    for (field, declared, limit) in [("M", m, MAX_VAR), ("I", i, MAX_INPUTS)] {
        if declared > limit {
            return Err(ParseAigerError::TooLarge {
                field,
                declared,
                limit,
            });
        }
    }
    match fields[0] {
        "aag" => read_ascii_body(r, i, o, a),
        "aig" => read_binary_body(r, i, o, a),
        other => Err(malformed(format!("unknown format '{other}'"))),
    }
}

/// How many of `declared` items to reserve room for: no more than the
/// bytes the reader already holds could encode at `min_bytes` apiece. A
/// slice or cursor holds the whole file, so a well-formed one is reserved
/// exactly; a header that declares more than its bytes can back is never
/// believed.
fn backed_by_bytes<R: BufRead>(r: &mut R, declared: u32, min_bytes: usize) -> io::Result<usize> {
    Ok((declared as usize).min(r.fill_buf()?.len() / min_bytes))
}

fn read_ascii_body<R: BufRead>(
    mut r: R,
    num_in: u32,
    num_out: u32,
    num_and: u32,
) -> Result<Aig, ParseAigerError> {
    // An input or output line is at least `0\n`, a gate line `6 2 4\n`.
    let mut aig = Aig::with_shape(
        backed_by_bytes(&mut r, num_in, 2)?,
        backed_by_bytes(&mut r, num_and, 6)?,
    );
    let mut outputs = Vec::with_capacity(backed_by_bytes(&mut r, num_out, 2)?);
    let mut read_line = |expect: &str| -> Result<String, ParseAigerError> {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(malformed(format!(
                "unexpected end of file reading {expect}"
            )));
        }
        Ok(line.trim().to_string())
    };
    // Inputs must be the literals 2, 4, ... in order.
    for k in 0..num_in {
        let line = read_line("input")?;
        let lit: u32 = line.parse().map_err(|_| malformed("bad input literal"))?;
        if lit != (k + 1) * 2 {
            return Err(malformed(format!(
                "input {k} has literal {lit}; this reader requires canonical input numbering"
            )));
        }
        aig.add_input();
    }
    for _ in 0..num_out {
        let line = read_line("output")?;
        let lit: u32 = line.parse().map_err(|_| malformed("bad output literal"))?;
        outputs.push(lit);
    }
    let base = num_in + 1;
    for k in 0..num_and {
        let line = read_line("and gate")?;
        let mut parts = line.split_whitespace();
        let mut next = || -> Result<u32, ParseAigerError> {
            parts
                .next()
                .ok_or_else(|| malformed("truncated and line"))?
                .parse()
                .map_err(|_| malformed("bad and literal"))
        };
        let (lhs, rhs0, rhs1) = (next()?, next()?, next()?);
        if lhs != (base + k) * 2 {
            return Err(malformed(format!(
                "and gate {k} has lhs {lhs}; expected {} (ordered file required)",
                (base + k) * 2
            )));
        }
        if rhs0 >= lhs || rhs1 >= lhs {
            return Err(malformed("forward reference in and gate"));
        }
        aig.push_and_raw(Lit::from_raw(rhs0), Lit::from_raw(rhs1));
    }
    for lit in outputs {
        if lit / 2 > num_in + num_and {
            return Err(malformed("output literal out of range"));
        }
        aig.add_output(Lit::from_raw(lit));
    }
    Ok(aig)
}

fn read_binary_body<R: BufRead>(
    mut r: R,
    num_in: u32,
    num_out: u32,
    num_and: u32,
) -> Result<Aig, ParseAigerError> {
    // Inputs are implicit (no bytes: `num_in <= MAX_INPUTS` is their
    // bound); an output line is at least `0\n`, a gate two delta bytes.
    let mut aig = Aig::with_shape(num_in as usize, backed_by_bytes(&mut r, num_and, 2)?);
    for _ in 0..num_in {
        aig.add_input();
    }
    let mut outputs = Vec::with_capacity(backed_by_bytes(&mut r, num_out, 2)?);
    for _ in 0..num_out {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(malformed("unexpected end of file reading outputs"));
        }
        let lit: u32 = line
            .trim()
            .parse()
            .map_err(|_| malformed("bad output literal"))?;
        outputs.push(lit);
    }
    for k in 0..num_and {
        let lhs = (num_in + 1 + k) * 2;
        let d0 = read_delta(&mut r)?;
        let d1 = read_delta(&mut r)?;
        if d0 == 0 {
            return Err(malformed("delta0 is zero: a gate cannot be its own fanin"));
        }
        let rhs0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| malformed("delta0 underflow"))?;
        let rhs1 = rhs0
            .checked_sub(d1)
            .ok_or_else(|| malformed("delta1 underflow"))?;
        aig.push_and_raw(Lit::from_raw(rhs0), Lit::from_raw(rhs1));
    }
    for lit in outputs {
        if lit / 2 > num_in + num_and {
            return Err(malformed("output literal out of range"));
        }
        aig.add_output(Lit::from_raw(lit));
    }
    Ok(aig)
}

impl Aig {
    /// Inserts an AND node without strashing or folding (AIGER reader path).
    /// Registers it in the strash table if the key is free so later
    /// [`Aig::and`] calls can still share it.
    pub(crate) fn push_and_raw(&mut self, a: Lit, b: Lit) -> NodeId {
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        let id = NodeId::new(self.num_nodes() as u32);
        self.push_node_raw(a, b);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let ins = aig.add_inputs(3);
        let (s, c) = aig.full_adder(ins[0], ins[1], ins[2]);
        aig.add_output(s);
        aig.add_output(!c);
        aig.set_name("fa3");
        aig
    }

    #[test]
    fn ascii_roundtrip_preserves_structure() {
        let aig = sample_aig();
        let mut buf = Vec::new();
        write_ascii(&aig, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_ands(), aig.num_ands());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        assert_eq!(back.outputs(), aig.outputs());
        assert!(sim::random_equivalence_check(&aig, &back, 4, 1).is_ok());
    }

    #[test]
    fn binary_roundtrip_preserves_function() {
        let aig = sample_aig();
        let mut buf = Vec::new();
        write_binary(&aig, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(back.num_ands(), aig.num_ands());
        assert!(sim::random_equivalence_check(&aig, &back, 8, 2).is_ok());
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        match read(text.as_bytes()) {
            Err(ParseAigerError::Sequential) => {}
            other => panic!("expected Sequential, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read("bogus 1 2 3".as_bytes()).is_err());
        assert!(read("aag 5 2 0 1".as_bytes()).is_err());
        // M != I + A
        assert!(read("aag 9 2 0 1 3\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_forward_reference() {
        // and gate referencing literal 8 (variable 4) before it exists
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 8 2\n";
        assert!(matches!(
            read(text.as_bytes()),
            Err(ParseAigerError::Malformed(_))
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = malformed("odd literal");
        assert!(e.to_string().contains("odd literal"));
        assert!(ParseAigerError::Sequential
            .to_string()
            .contains("sequential"));
    }

    #[test]
    fn delta_coding_roundtrip() {
        for v in [0u32, 1, 127, 128, 300, 1 << 20, u32::MAX / 2] {
            let mut buf = Vec::new();
            write_delta(&mut buf, v).unwrap();
            let got = read_delta(&mut &buf[..]).unwrap();
            assert_eq!(got, v);
        }
    }

    /// A five-byte delta carries 32 bits and no more: bits 32–34 of the
    /// fifth byte are refused, not dropped.
    #[test]
    fn delta_past_32_bits_is_refused() {
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(read_delta(&mut &max[..]).unwrap(), u32::MAX);
        let mut buf = Vec::new();
        write_delta(&mut buf, u32::MAX).unwrap();
        assert_eq!(buf, max);
        for fifth in [0x10u8, 0x20, 0x40, 0x7F] {
            let wide = [0x80, 0x80, 0x80, 0x80, fifth];
            let err = read_delta(&mut &wide[..]).unwrap_err();
            assert!(
                err.to_string().contains("delta overflow"),
                "{fifth:#x}: {err}"
            );
        }
    }
}
