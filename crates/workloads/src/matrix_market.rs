//! Matrix Market (`.mtx`) I/O — the exchange format of the SuiteSparse
//! collection the SpMV literature benchmarks against.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers (pattern
//! entries get value 1.0), which covers the collection's sparse matrices.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use sellkit_core::{CooBuilder, Csr, MatShape};

/// Errors arising while parsing a Matrix Market stream.
#[derive(Debug)]
pub enum MtxError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file, with a human-readable reason.
    Parse(String),
    /// A *valid* Matrix Market field type this crate cannot represent —
    /// `complex` matrices have no lossless embedding into the f64-valued
    /// [`Csr`].  Typed (rather than a generic [`MtxError::Parse`]) so
    /// callers can tell "your file is broken" from "your file is fine
    /// but needs its real/imaginary parts split first".
    UnsupportedField {
        /// The field token from the header, lower-cased.
        field: String,
    },
    /// A *valid* symmetry qualifier this crate does not expand —
    /// `hermitian` implies complex values, and `skew-symmetric` would
    /// need sign-flipped mirroring nothing downstream exercises.
    UnsupportedSymmetry {
        /// The symmetry token from the header, lower-cased.
        symmetry: String,
    },
}

impl std::fmt::Display for MtxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "I/O error: {e}"),
            MtxError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
            MtxError::UnsupportedField { field } => write!(
                f,
                "Matrix Market field type `{field}` is not supported: sellkit matrices \
                 are f64-valued; split the matrix into real/imaginary parts first"
            ),
            MtxError::UnsupportedSymmetry { symmetry } => write!(
                f,
                "Matrix Market symmetry `{symmetry}` is not supported: expand the \
                 file to `general` (only `general` and `symmetric` are read)"
            ),
        }
    }
}

impl std::error::Error for MtxError {}

impl From<std::io::Error> for MtxError {
    fn from(e: std::io::Error) -> Self {
        MtxError::Io(e)
    }
}

/// Most entries preallocated on the word of a size line (16 MiB of
/// triplets); larger files grow their buffers as they are read.
const MAX_HEADER_RESERVE: usize = 1 << 20;

fn parse_err(msg: impl Into<String>) -> MtxError {
    MtxError::Parse(msg.into())
}

/// Reads a Matrix Market stream into CSR.
///
/// ```
/// use sellkit_core::MatShape;
/// let text = "%%MatrixMarket matrix coordinate real general\n\
///             2 2 2\n1 1 4.0\n2 2 5.0\n";
/// let a = sellkit_workloads::read_mtx(text.as_bytes()).unwrap();
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.get(1, 1), Some(5.0));
/// ```
pub fn read_mtx<R: Read>(reader: R) -> Result<Csr, MtxError> {
    let mut lines = BufReader::new(reader).lines();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let header = lines.next().ok_or_else(|| parse_err("empty file"))??;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() < 5 || !h[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(format!("bad header line: {header}")));
    }
    if !h[1].eq_ignore_ascii_case("matrix") || !h[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err("only `matrix coordinate` files are supported"));
    }
    let pattern = match h[3].to_ascii_lowercase().as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        // `complex` is a well-formed header, just outside f64-land: give
        // the caller a typed error rather than a generic parse failure.
        field @ "complex" => {
            return Err(MtxError::UnsupportedField {
                field: field.to_string(),
            })
        }
        other => return Err(parse_err(format!("unknown field type `{other}`"))),
    };
    let symmetric = match h[4].to_ascii_lowercase().as_str() {
        "general" => false,
        "symmetric" => true,
        sym @ ("hermitian" | "skew-symmetric") => {
            return Err(MtxError::UnsupportedSymmetry {
                symmetry: sym.to_string(),
            })
        }
        other => return Err(parse_err(format!("unknown symmetry `{other}`"))),
    };

    // Size line (after comments).
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(line);
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size token `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    let [m, n, nnz] = dims[..] else {
        return Err(parse_err(format!("size line needs 3 fields: {size_line}")));
    };

    if m > u32::MAX as usize || n > u32::MAX as usize {
        return Err(parse_err(format!(
            "dimensions {m}x{n} exceed the 32-bit index space"
        )));
    }
    let claimed = if symmetric {
        nnz.checked_mul(2)
    } else {
        Some(nnz)
    }
    .ok_or_else(|| parse_err(format!("entry count {nnz} overflows")))?;
    // The header's count is a claim: reserve for a bounded part of it and
    // let the vectors grow as entries actually arrive.
    let mut b = CooBuilder::with_capacity(m, n, claimed.min(MAX_HEADER_RESERVE));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad row index in `{t}`")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| parse_err("missing col index"))?
            .parse()
            .map_err(|_| parse_err(format!("bad col index in `{t}`")))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err(format!("bad value in `{t}`")))?
        };
        if i == 0 || j == 0 || i > m || j > n {
            return Err(parse_err(format!("entry ({i}, {j}) out of bounds {m}x{n}")));
        }
        b.push(i - 1, j - 1, v);
        if symmetric && i != j {
            b.push(j - 1, i - 1, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(b.to_csr())
}

/// Reads a `.mtx` file from disk.
pub fn read_mtx_file(path: impl AsRef<Path>) -> Result<Csr, MtxError> {
    read_mtx(std::fs::File::open(path)?)
}

/// Writes a CSR matrix as `matrix coordinate real general`.
pub fn write_mtx<W: Write>(a: &Csr, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by sellkit")?;
    writeln!(writer, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        for (k, &c) in a.row_cols(i).iter().enumerate() {
            writeln!(writer, "{} {} {:e}", i + 1, c + 1, a.row_vals(i)[k])?;
        }
    }
    Ok(())
}

/// Writes a `.mtx` file to disk.
pub fn write_mtx_file(a: &Csr, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_mtx(a, std::io::BufWriter::new(std::fs::File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_through_bytes() {
        let a = generators::random_uniform(40, 5, 9);
        let mut buf = Vec::new();
        write_mtx(&a, &mut buf).expect("write");
        let b = read_mtx(buf.as_slice()).expect("read");
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn parses_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 2 3.0\n\
                    3 3 4.0\n\
                    1 3 -1.5\n";
        let a = read_mtx(text.as_bytes()).expect("parse");
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), Some(-1.5));
    }

    #[test]
    fn parses_symmetric_and_mirrors() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 2.0\n\
                    2 1 5.0\n\
                    3 3 1.0\n";
        let a = read_mtx(text.as_bytes()).expect("parse");
        assert_eq!(a.nnz(), 4, "off-diagonal mirrored");
        assert_eq!(a.get(0, 1), Some(5.0));
        assert_eq!(a.get(1, 0), Some(5.0));
    }

    #[test]
    fn parses_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 1\n\
                    2 2\n";
        let a = read_mtx(text.as_bytes()).expect("parse");
        assert_eq!(a.get(0, 0), Some(1.0));
        assert_eq!(a.get(1, 1), Some(1.0));
    }

    #[test]
    fn parses_integer_field_as_f64() {
        let text = "%%MatrixMarket matrix coordinate integer general\n\
                    2 2 2\n\
                    1 1 7\n\
                    2 2 -3\n";
        let a = read_mtx(text.as_bytes()).expect("parse");
        assert_eq!(a.get(0, 0), Some(7.0));
        assert_eq!(a.get(1, 1), Some(-3.0));
    }

    #[test]
    fn complex_field_is_a_typed_unsupported_error() {
        let text = "%%MatrixMarket matrix coordinate complex general\n\
                    2 2 1\n\
                    1 1 1.0 0.5\n";
        let err = read_mtx(text.as_bytes()).expect_err("complex must be rejected");
        assert!(
            matches!(&err, MtxError::UnsupportedField { field } if field == "complex"),
            "want UnsupportedField, got {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("complex") && msg.contains("real/imaginary"),
            "{msg}"
        );
    }

    #[test]
    fn hermitian_symmetry_is_a_typed_unsupported_error() {
        let text = "%%MatrixMarket matrix coordinate real Hermitian\n\
                    2 2 1\n\
                    1 1 1.0\n";
        let err = read_mtx(text.as_bytes()).expect_err("hermitian must be rejected");
        assert!(
            matches!(&err, MtxError::UnsupportedSymmetry { symmetry } if symmetry == "hermitian"),
            "want UnsupportedSymmetry (lower-cased), got {err:?}"
        );
        assert!(err.to_string().contains("hermitian"), "{err}");
        // skew-symmetric rides the same typed arm.
        let skew = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 1.0\n";
        let err = read_mtx(skew.as_bytes()).expect_err("skew-symmetric rejected");
        assert!(
            matches!(err, MtxError::UnsupportedSymmetry { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_bad_headers_and_bounds() {
        assert!(read_mtx("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read_mtx("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_mtx(oob.as_bytes()).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(
            read_mtx(short.as_bytes()).is_err(),
            "entry count mismatch detected"
        );
    }

    fn expect_parse_error(text: &str) -> String {
        match read_mtx(text.as_bytes()) {
            Err(MtxError::Parse(msg)) => msg,
            other => panic!("want MtxError::Parse, got {other:?}"),
        }
    }

    #[test]
    fn dimensions_past_u32_are_a_parse_error() {
        let msg =
            expect_parse_error("%%MatrixMarket matrix coordinate real general\n5000000000 1 0\n");
        assert!(msg.contains("32-bit"), "{msg}");
        let msg =
            expect_parse_error("%%MatrixMarket matrix coordinate real general\n1 5000000000 0\n");
        assert!(msg.contains("32-bit"), "{msg}");
    }

    #[test]
    fn entry_count_at_usize_max_is_a_parse_error() {
        // General: nothing is reserved on the header's word; the count
        // mismatch is reported once the (empty) body has been read.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n",
        );
        assert!(msg.contains("found 0"), "{msg}");
        // Symmetric: `2 * nnz` is checked, not wrapped.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 18446744073709551615\n",
        );
        assert!(msg.contains("overflows"), "{msg}");
    }

    #[test]
    fn huge_claimed_entry_count_does_not_allocate() {
        // 10^12 claimed entries would be a 16 TB reserve; the one entry
        // present is read and the shortfall reported.
        let msg = expect_parse_error(
            "%%MatrixMarket matrix coordinate real general\n2 2 1000000000000\n1 1 1.0\n",
        );
        assert!(msg.contains("found 1"), "{msg}");
    }

    #[test]
    fn file_round_trip() {
        let a = generators::stencil5(12);
        let dir = std::env::temp_dir().join("sellkit_mtx_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stencil5.mtx");
        write_mtx_file(&a, &path).expect("write file");
        let b = read_mtx_file(&path).expect("read file");
        assert_eq!(a.to_dense(), b.to_dense());
        std::fs::remove_file(&path).ok();
    }
}
