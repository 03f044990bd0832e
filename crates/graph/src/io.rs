//! Edge-list I/O: a whitespace text format (`u v w` per line, `#` comments)
//! and a compact little-endian binary format with a magic header.
//!
//! The paper reads its inputs with Gemini's parallel reader (each MPI rank
//! reads an offset slice of the file). [`read_binary_slice`] mirrors that:
//! it reads only the `rank`-th of `nranks` equal record slices, which is the
//! API the distributed driver uses to emulate parallel input.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::edgelist::EdgeList;
use crate::types::{VertexId, WEdge};

/// Magic bytes of the binary format ("MNDG" + version 1).
const MAGIC: &[u8; 8] = b"MNDG\0\0\0\x01";
/// Bytes per binary edge record: u32 u, u32 v, u32 w.
const RECORD: u64 = 12;
/// Bytes before the first binary record: magic, vertex count, edge count.
const HEADER: u64 = 8 + 4 + 8;
/// Records a streaming read reserves room for up front. The header's edge
/// count is only a claim until the records arrive, so a larger list grows
/// as they do.
const MAX_PREALLOC: u64 = 1 << 20;

/// Writes the text format.
pub fn write_text<W: Write>(el: &EdgeList, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(
        w,
        "# mnd-graph edge list: {} vertices {} edges",
        el.num_vertices(),
        el.len()
    )?;
    writeln!(w, "{}", el.num_vertices())?;
    for e in el.edges() {
        writeln!(w, "{} {} {}", e.u, e.v, e.w)?;
    }
    w.flush()
}

/// Reads the text format (canonicalising on the way in).
pub fn read_text<R: Read>(input: R) -> io::Result<EdgeList> {
    let r = BufReader::new(input);
    let mut num_vertices: Option<VertexId> = None;
    let mut edges = Vec::new();
    for line in r.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if num_vertices.is_none() {
            num_vertices = Some(parse(line, "vertex count")?);
            continue;
        }
        let mut it = line.split_whitespace();
        let u: VertexId = parse(it.next().unwrap_or(""), "u")?;
        let v: VertexId = parse(it.next().unwrap_or(""), "v")?;
        let w = parse(it.next().unwrap_or("1"), "w")?;
        edges.push(WEdge::new(u, v, w));
    }
    let n = num_vertices.ok_or_else(|| bad("missing vertex count line"))?;
    for &e in &edges {
        in_range(e, n)?;
    }
    Ok(EdgeList::from_raw(n, edges))
}

/// `e` if both its endpoints are vertices of an `n`-vertex graph.
fn in_range(e: WEdge, n: VertexId) -> io::Result<WEdge> {
    if e.v >= n {
        return Err(bad(&format!("edge {e:?} exceeds vertex count {n}")));
    }
    Ok(e)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> io::Result<T> {
    s.parse().map_err(|_| bad(&format!("bad {what}: {s:?}")))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes the binary format.
pub fn write_binary<W: Write>(el: &EdgeList, out: W) -> io::Result<()> {
    let mut w = BufWriter::new(out);
    w.write_all(MAGIC)?;
    w.write_all(&el.num_vertices().to_le_bytes())?;
    w.write_all(&(el.len() as u64).to_le_bytes())?;
    for e in el.edges() {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
        w.write_all(&e.w.to_le_bytes())?;
    }
    w.flush()
}

/// Reads the whole binary file.
pub fn read_binary<R: Read>(mut input: R) -> io::Result<EdgeList> {
    let (n, m) = read_binary_header(&mut input)?;
    let mut edges = Vec::with_capacity(m.min(MAX_PREALLOC) as usize);
    let mut buf = [0u8; RECORD as usize];
    for _ in 0..m {
        input.read_exact(&mut buf)?;
        edges.push(in_range(decode(&buf), n)?);
    }
    Ok(EdgeList::from_raw(n, edges))
}

fn read_binary_header<R: Read>(input: &mut R) -> io::Result<(VertexId, u64)> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an mnd-graph binary file"));
    }
    let mut b4 = [0u8; 4];
    input.read_exact(&mut b4)?;
    let n = VertexId::from_le_bytes(b4);
    let mut b8 = [0u8; 8];
    input.read_exact(&mut b8)?;
    Ok((n, u64::from_le_bytes(b8)))
}

/// Gemini-style parallel read: returns the `rank`-th of `nranks` contiguous
/// record slices of the file plus the global vertex count. Every rank calls
/// this with the same path; the union of all slices is the whole edge list.
pub fn read_binary_slice<P: AsRef<Path>>(
    path: P,
    rank: usize,
    nranks: usize,
) -> io::Result<(VertexId, Vec<WEdge>)> {
    assert!(rank < nranks && nranks >= 1);
    let mut f = std::fs::File::open(path)?;
    let (n, m) = read_binary_header(&mut f)?;
    // The records must be there before any is reserved room for.
    let len = f.metadata()?.len();
    let need = m.checked_mul(RECORD).and_then(|b| b.checked_add(HEADER));
    if need.is_none_or(|need| need > len) {
        return Err(bad(&format!(
            "header claims {m} edges, more than the file's {len} bytes hold"
        )));
    }
    let per = m / nranks as u64;
    let extra = m % nranks as u64;
    // First `extra` ranks take one extra record.
    let start = rank as u64 * per + (rank as u64).min(extra);
    let count = per + if (rank as u64) < extra { 1 } else { 0 };
    f.seek(SeekFrom::Start(HEADER + start * RECORD))?;
    let mut out = Vec::with_capacity(count as usize);
    let mut buf = [0u8; RECORD as usize];
    for _ in 0..count {
        f.read_exact(&mut buf)?;
        out.push(in_range(decode(&buf), n)?);
    }
    Ok((n, out))
}

fn decode(buf: &[u8; RECORD as usize]) -> WEdge {
    let u = VertexId::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let v = VertexId::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let w = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    WEdge::new(u, v, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn text_round_trip() {
        let el = gen::gnm(50, 200, 4);
        let mut buf = Vec::new();
        write_text(&el, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn text_rejects_out_of_range_edges() {
        let input = "3\n0 5 1\n";
        assert!(read_text(input.as_bytes()).is_err());
    }

    #[test]
    fn text_defaults_weight_to_one() {
        let input = "# comment\n4\n0 1\n2 3 9\n";
        let el = read_text(input.as_bytes()).unwrap();
        assert_eq!(el.edges()[0].w, 1);
        assert_eq!(el.edges()[1].w, 9);
    }

    #[test]
    fn binary_round_trip() {
        let el = gen::rmat(64, 512, gen::RmatProbs::GRAPH500, 11);
        let mut buf = Vec::new();
        write_binary(&el, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(el, back);
    }

    #[test]
    fn binary_rejects_wrong_magic() {
        let buf = b"NOTGRAPH........".to_vec();
        assert!(read_binary(&buf[..]).is_err());
    }

    /// A binary file: the header claims `n` vertices and `m` edges, then
    /// `records` follow.
    fn binary_file(n: VertexId, m: u64, records: &[(u32, u32, u32)]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend(n.to_le_bytes());
        buf.extend(m.to_le_bytes());
        for &(u, v, w) in records {
            buf.extend(u.to_le_bytes());
            buf.extend(v.to_le_bytes());
            buf.extend(w.to_le_bytes());
        }
        buf
    }

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mnd_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn binary_rejects_a_header_claiming_more_edges_than_the_file_holds() {
        for m in [1 << 40, u64::MAX] {
            let bytes = binary_file(4, m, &[(0, 1, 1)]);
            assert!(read_binary(&bytes[..]).is_err(), "m={m}");
            let path = temp_file(&format!("oversized-{m}.bin"), &bytes);
            let err = read_binary_slice(&path, 0, 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "m={m}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn binary_rejects_out_of_range_edges() {
        let bytes = binary_file(3, 2, &[(0, 1, 1), (2, 5, 1)]);
        let err = read_binary(&bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let path = temp_file("out-of-range.bin", &bytes);
        assert!(read_binary_slice(&path, 0, 1).is_err());
        // The bad record is in rank 1's slice only.
        assert!(read_binary_slice(&path, 0, 2).is_ok());
        assert!(read_binary_slice(&path, 1, 2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_slices_cover_file() {
        let el = gen::gnm(40, 123, 8);
        let dir = std::env::temp_dir().join("mnd_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slices.bin");
        write_binary(&el, std::fs::File::create(&path).unwrap()).unwrap();

        for nranks in [1usize, 3, 5, 16] {
            let mut all = Vec::new();
            for rank in 0..nranks {
                let (n, slice) = read_binary_slice(&path, rank, nranks).unwrap();
                assert_eq!(n, 40);
                all.extend(slice);
            }
            let rebuilt = EdgeList::from_raw(40, all);
            assert_eq!(rebuilt, el, "nranks={nranks}");
        }
        std::fs::remove_file(&path).ok();
    }
}
