//! Medical research (§1.1 Application 2, Figure 2, costed in §6.2.2).
//!
//! A researcher `T` validates a hypothesis linking DNA pattern `D` to a
//! reaction to drug `G`. Enterprise `R` holds `T_R(personid, pattern)`;
//! enterprise `S` holds `T_S(personid, drug, reaction)`. `T` needs the
//! contingency table
//!
//! ```sql
//! select pattern, reaction, count(*)
//! from TR, TS
//! where TR.personid = TS.personid and TS.drug = 'true'
//! group by TR.pattern, TS.reaction
//! ```
//!
//! without anyone learning anything about individuals. Figure 2's plan:
//! four **intersection-size** runs — one per (pattern, reaction) cell —
//! using the modified protocol in which `Z_R` and `Z_S` are sent to `T`
//! instead of back to `S` and `R`; set differences like `V_R − V_R'` are
//! computed locally before entering the protocol.

use std::collections::BTreeSet;

use minshare_bignum::UBig;
use minshare_crypto::QrGroup;
use minshare_net::{duplex_pair, CountingTransport, Transport};
use minshare_privdb::{query, ColumnType, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ProtocolError;
use crate::prepare::prepare_set;
use crate::stats::OpCounters;
use crate::wire::{require_strictly_sorted, Message};

/// The 2×2 contingency table the researcher obtains:
/// `counts[pattern][reaction]` over people who took the drug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedicalCounts {
    /// `counts[p][r]` = number of drug-takers with `pattern == (p == 1)`
    /// and `reaction == (r == 1)`.
    pub counts: [[u64; 2]; 2],
}

/// Aggregate cost of the four protocol runs.
#[derive(Debug, Clone, Default)]
pub struct MedicalCost {
    /// Operation counts across all parties and runs.
    pub ops: OpCounters,
    /// Total bits on the wire across all runs and links.
    pub total_bits: u64,
}

/// Builds `T_R(personid, pattern)`.
pub fn make_tr(rows: &[(i64, bool)]) -> Result<Table, ProtocolError> {
    let schema = Schema::new(vec![
        ("personid", ColumnType::Int),
        ("pattern", ColumnType::Bool),
    ])?;
    let mut t = Table::new("TR", schema);
    for (id, pattern) in rows {
        t.insert(vec![Value::Int(*id), Value::Bool(*pattern)])?;
    }
    Ok(t)
}

/// Builds `T_S(personid, drug, reaction)`.
pub fn make_ts(rows: &[(i64, bool, bool)]) -> Result<Table, ProtocolError> {
    let schema = Schema::new(vec![
        ("personid", ColumnType::Int),
        ("drug", ColumnType::Bool),
        ("reaction", ColumnType::Bool),
    ])?;
    let mut t = Table::new("TS", schema);
    for (id, drug, reaction) in rows {
        t.insert(vec![
            Value::Int(*id),
            Value::Bool(*drug),
            Value::Bool(*reaction),
        ])?;
    }
    Ok(t)
}

/// Reads one cell of a row by column index, as a typed error rather
/// than an indexing panic if the row is narrower than its schema.
fn cell<'a>(row: &'a [Value], idx: usize) -> Result<&'a Value, ProtocolError> {
    row.get(idx).ok_or_else(|| ProtocolError::MalformedMessage {
        detail: format!("table row has no column {idx}"),
    })
}

/// Writes one contingency-table cell; `p`/`x` come from bool casts and
/// are always in range, so an out-of-range pair is simply ignored.
fn set_count(counts: &mut [[u64; 2]; 2], p: usize, x: usize, n: u64) {
    if let Some(c) = counts.get_mut(p).and_then(|r| r.get_mut(x)) {
        *c = n;
    }
}

/// Extracts person-id value sets: Figure 2's local preprocessing.
/// Returns `(V_R', V_R − V_R', V_S', V_S − V_S')` where `V_R'` = ids whose
/// DNA matches, `V_S'` = drug-takers with an adverse reaction, and `V_S`
/// = all drug-takers.
pub fn partition_ids(tr: &Table, ts: &Table) -> Result<[Vec<Vec<u8>>; 4], ProtocolError> {
    let pattern_idx = tr.schema().index_of("pattern")?;
    let id_idx_r = tr.schema().index_of("personid")?;
    let drug_idx = ts.schema().index_of("drug")?;
    let reaction_idx = ts.schema().index_of("reaction")?;
    let id_idx_s = ts.schema().index_of("personid")?;

    let encode = |v: &Value| minshare_privdb::rowcodec::encode_value(v);

    let mut r_match = BTreeSet::new();
    let mut r_nomatch = BTreeSet::new();
    for row in tr.rows() {
        let set = if cell(row, pattern_idx)? == &Value::Bool(true) {
            &mut r_match
        } else {
            &mut r_nomatch
        };
        set.insert(encode(cell(row, id_idx_r)?));
    }
    let mut s_reaction = BTreeSet::new();
    let mut s_noreaction = BTreeSet::new();
    for row in ts.rows() {
        if cell(row, drug_idx)? != &Value::Bool(true) {
            continue; // TS.drug = "true" filter
        }
        let set = if cell(row, reaction_idx)? == &Value::Bool(true) {
            &mut s_reaction
        } else {
            &mut s_noreaction
        };
        set.insert(encode(cell(row, id_idx_s)?));
    }
    Ok([
        r_match.into_iter().collect(),
        r_nomatch.into_iter().collect(),
        s_reaction.into_iter().collect(),
        s_noreaction.into_iter().collect(),
    ])
}

/// Output of one three-party intersection-size run, as seen by `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreePartyRun {
    /// `|V_S ∩ V_R|`, learned by the researcher.
    pub intersection_size: usize,
    /// `|V_R|` (revealed to `T` by `|Z_R|`).
    pub vr_size: usize,
    /// `|V_S|` (revealed to `T` by `|Z_S|`).
    pub vs_size: usize,
    /// Combined op counts of `R` and `S`.
    pub ops: OpCounters,
    /// Total bits over all three links.
    pub total_bits: u64,
}

/// The modified intersection-size protocol of §6.2.2: `R` and `S`
/// exchange encrypted sets as usual, but the double-encrypted sets `Z_S`
/// and `Z_R` go to the researcher `T`, who alone learns the size.
pub fn three_party_intersection_size(
    group: &QrGroup,
    vs: &[Vec<u8>],
    vr: &[Vec<u8>],
    seed: u64,
) -> Result<ThreePartyRun, ProtocolError> {
    // Links: R↔S, R→T, S→T.
    let (rs_r, rs_s) = duplex_pair();
    let (rt_r, rt_t) = duplex_pair();
    let (st_s, st_t) = duplex_pair();
    let (mut rs_r, rs_r_stats) = CountingTransport::new(rs_r);
    let (mut rs_s, _) = CountingTransport::new(rs_s);
    let (mut rt_r, rt_stats) = CountingTransport::new(rt_r);
    let (mut st_s, st_stats) = CountingTransport::new(st_s);
    let mut rt_t = rt_t;
    let mut st_t = st_t;

    let run = std::thread::scope(|scope| -> Result<ThreePartyRun, ProtocolError> {
        // Party R.
        let r_handle = scope.spawn({
            let group = group.clone();
            move || -> Result<OpCounters, ProtocolError> {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1111);
                let mut ops = OpCounters::default();
                let prepared = prepare_set(&group, vr, &mut ops)?;
                let key = group.gen_key(&mut rng);
                let mut yr: Vec<UBig> = prepared
                    .entries
                    .iter()
                    .map(|(_, h)| {
                        ops.encryptions += 1;
                        group.encrypt(&key, h)
                    })
                    .collect();
                yr.sort();
                rs_r.send(&Message::Codewords(yr).encode(&group)?)?;
                // Receive Y_S from S.
                let ys = match Message::decode(&rs_r.recv()?, &group)? {
                    Message::Codewords(l) => l,
                    other => {
                        return Err(ProtocolError::UnexpectedMessage {
                            expected: "codewords",
                            got: other.kind(),
                        })
                    }
                };
                require_strictly_sorted(&ys, "Y_S")?;
                // Z_S = f_eR(Y_S) → researcher.
                let mut zs: Vec<UBig> = ys
                    .iter()
                    .map(|y| {
                        ops.encryptions += 1;
                        group.encrypt(&key, y)
                    })
                    .collect();
                zs.sort();
                rt_r.send(&Message::Codewords(zs).encode(&group)?)?;
                Ok(ops)
            }
        });

        // Party S.
        let s_handle = scope.spawn({
            let group = group.clone();
            move || -> Result<OpCounters, ProtocolError> {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x2222);
                let mut ops = OpCounters::default();
                let prepared = prepare_set(&group, vs, &mut ops)?;
                let key = group.gen_key(&mut rng);
                let mut ys: Vec<UBig> = prepared
                    .entries
                    .iter()
                    .map(|(_, h)| {
                        ops.encryptions += 1;
                        group.encrypt(&key, h)
                    })
                    .collect();
                ys.sort();
                // Receive Y_R, send Y_S.
                let yr = match Message::decode(&rs_s.recv()?, &group)? {
                    Message::Codewords(l) => l,
                    other => {
                        return Err(ProtocolError::UnexpectedMessage {
                            expected: "codewords",
                            got: other.kind(),
                        })
                    }
                };
                require_strictly_sorted(&yr, "Y_R")?;
                rs_s.send(&Message::Codewords(ys).encode(&group)?)?;
                // Z_R = f_eS(Y_R) → researcher.
                let mut zr: Vec<UBig> = yr
                    .iter()
                    .map(|y| {
                        ops.encryptions += 1;
                        group.encrypt(&key, y)
                    })
                    .collect();
                zr.sort();
                st_s.send(&Message::Codewords(zr).encode(&group)?)?;
                Ok(ops)
            }
        });

        // Party T (researcher): receives Z_S and Z_R only.
        let t_handle = scope.spawn({
            let group = group.clone();
            move || -> Result<(usize, usize, usize), ProtocolError> {
                let zs = match Message::decode(&rt_t.recv()?, &group)? {
                    Message::Codewords(l) => l,
                    other => {
                        return Err(ProtocolError::UnexpectedMessage {
                            expected: "codewords",
                            got: other.kind(),
                        })
                    }
                };
                let zr = match Message::decode(&st_t.recv()?, &group)? {
                    Message::Codewords(l) => l,
                    other => {
                        return Err(ProtocolError::UnexpectedMessage {
                            expected: "codewords",
                            got: other.kind(),
                        })
                    }
                };
                let zs_set: BTreeSet<&UBig> = zs.iter().collect();
                let size = zr.iter().filter(|z| zs_set.contains(z)).count();
                Ok((size, zr.len(), zs.len()))
            }
        });

        let r_ops = t_join(r_handle, "receiver")??;
        let s_ops = t_join(s_handle, "sender")??;
        let (intersection_size, vr_size, vs_size) = t_join(t_handle, "researcher")??;
        Ok(ThreePartyRun {
            intersection_size,
            vr_size,
            vs_size,
            ops: r_ops + s_ops,
            total_bits: 0, // filled below
        })
    })?;

    let total_bits = (rs_r_stats.bytes_sent()
        + rs_r_stats.bytes_received()
        + rt_stats.bytes_sent()
        + st_stats.bytes_sent())
        * 8;
    Ok(ThreePartyRun { total_bits, ..run })
}

/// Joins a scoped thread, mapping panics to protocol errors.
fn t_join<'scope, O>(
    handle: std::thread::ScopedJoinHandle<'scope, O>,
    party: &'static str,
) -> Result<O, ProtocolError> {
    handle
        .join()
        .map_err(|_| ProtocolError::PartyPanicked { party })
}

/// Runs the full Figure 2 study: four three-party intersection sizes.
pub fn run_medical_study(
    group: &QrGroup,
    tr: &Table,
    ts: &Table,
    seed: u64,
) -> Result<(MedicalCounts, MedicalCost), ProtocolError> {
    let [r_match, r_nomatch, s_reaction, s_noreaction] = partition_ids(tr, ts)?;
    let mut counts = [[0u64; 2]; 2];
    let mut cost = MedicalCost::default();
    let cells = [
        (1usize, 1usize, &r_match, &s_reaction),
        (1, 0, &r_match, &s_noreaction),
        (0, 1, &r_nomatch, &s_reaction),
        (0, 0, &r_nomatch, &s_noreaction),
    ];
    for (i, (p, x, vr, vs)) in cells.into_iter().enumerate() {
        let run = three_party_intersection_size(group, vs, vr, seed.wrapping_add(i as u64))?;
        set_count(&mut counts, p, x, run.intersection_size as u64);
        cost.ops += run.ops;
        cost.total_bits += run.total_bits;
    }
    Ok((MedicalCounts { counts }, cost))
}

/// Ground truth: the same contingency table computed in the clear with
/// the relational substrate (what a trusted third party would return).
pub fn medical_counts_in_clear(tr: &Table, ts: &Table) -> Result<MedicalCounts, ProtocolError> {
    let joined = query::equijoin(tr, "personid", ts, "personid")?;
    let drug_idx = joined.schema().index_of("drug")?;
    let took = joined.filter("took_drug", |row| {
        row.get(drug_idx) == Some(&Value::Bool(true))
    });
    let grouped = query::group_by_count(&took, &["pattern", "reaction"])?;
    let mut counts = [[0u64; 2]; 2];
    for row in grouped.rows() {
        let p = (cell(row, 0)? == &Value::Bool(true)) as usize;
        let x = (cell(row, 1)? == &Value::Bool(true)) as usize;
        set_count(
            &mut counts,
            p,
            x,
            cell(row, 2)?.as_int().unwrap_or(0) as u64,
        );
    }
    Ok(MedicalCounts { counts })
}

/// The same ground truth through the SQL front end — literally the query
/// the paper prints in §1.1:
///
/// ```sql
/// select pattern, reaction, count(*)
/// from TR join TS on TR.personid = TS.personid
/// where TS.drug = true
/// group by pattern, reaction
/// ```
pub fn medical_counts_via_sql(tr: &Table, ts: &Table) -> Result<MedicalCounts, ProtocolError> {
    let mut catalog = minshare_privdb::sql::Catalog::new();
    catalog.register(tr.clone());
    catalog.register(ts.clone());
    let result = minshare_privdb::sql::execute(
        &catalog,
        "select pattern, reaction, count(*) \
         from TR join TS on TR.personid = TS.personid \
         where TS.drug = true \
         group by pattern, reaction",
    )?;
    let mut counts = [[0u64; 2]; 2];
    for row in result.rows() {
        let p = (cell(row, 0)? == &Value::Bool(true)) as usize;
        let x = (cell(row, 1)? == &Value::Bool(true)) as usize;
        set_count(
            &mut counts,
            p,
            x,
            cell(row, 2)?.as_int().unwrap_or(0) as u64,
        );
    }
    Ok(MedicalCounts { counts })
}

/// Generates synthetic study data: `n` people; DNA pattern with
/// probability `p_pattern`; drug taken with probability `p_drug`;
/// reaction correlated with the pattern (`p_reaction_given_pattern` vs
/// `p_reaction_base`).
pub fn synthetic_study<R: Rng>(
    rng: &mut R,
    n: usize,
    p_pattern: f64,
    p_drug: f64,
    p_reaction_given_pattern: f64,
    p_reaction_base: f64,
) -> Result<(Table, Table), ProtocolError> {
    let mut tr_rows = Vec::with_capacity(n);
    let mut ts_rows = Vec::with_capacity(n);
    for id in 0..n as i64 {
        let pattern = rng.random_bool(p_pattern);
        let drug = rng.random_bool(p_drug);
        let p_reaction = if pattern {
            p_reaction_given_pattern
        } else {
            p_reaction_base
        };
        let reaction = drug && rng.random_bool(p_reaction);
        tr_rows.push((id, pattern));
        ts_rows.push((id, drug, reaction));
    }
    Ok((make_tr(&tr_rows)?, make_ts(&ts_rows)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> QrGroup {
        let mut rng = StdRng::seed_from_u64(21);
        QrGroup::generate(&mut rng, 64).unwrap()
    }

    #[test]
    fn three_party_size_is_correct_and_blind() {
        let g = group();
        let vs: Vec<Vec<u8>> = [1u8, 2, 3, 4].iter().map(|b| vec![*b]).collect();
        let vr: Vec<Vec<u8>> = [3u8, 4, 5].iter().map(|b| vec![*b]).collect();
        let run = three_party_intersection_size(&g, &vs, &vr, 9).unwrap();
        assert_eq!(run.intersection_size, 2);
        assert_eq!(run.vs_size, 4);
        assert_eq!(run.vr_size, 3);
        // Four encrypting passes: V_S, V_R, Y_S, Y_R → 2(|VS|+|VR|) Ce.
        assert_eq!(run.ops.total_ce(), 2 * (4 + 3));
        assert!(run.total_bits > 0);
    }

    #[test]
    fn study_matches_clear_counts() {
        let g = group();
        let mut rng = StdRng::seed_from_u64(33);
        let (tr, ts) = synthetic_study(&mut rng, 40, 0.4, 0.6, 0.7, 0.2).unwrap();
        let (private, _) = run_medical_study(&g, &tr, &ts, 123).unwrap();
        let clear = medical_counts_in_clear(&tr, &ts).unwrap();
        assert_eq!(private, clear);
        // Third oracle: the paper's SQL, run through the SQL front end.
        let via_sql = medical_counts_via_sql(&tr, &ts).unwrap();
        assert_eq!(private, via_sql);
    }

    #[test]
    fn partition_respects_drug_filter() {
        let tr = make_tr(&[(1, true), (2, false), (3, true)]).unwrap();
        let ts = make_ts(&[
            (1, true, true),
            (2, false, true), // did not take the drug → excluded
            (3, true, false),
        ])
        .unwrap();
        let [rm, rn, sr, sn] = partition_ids(&tr, &ts).unwrap();
        assert_eq!(rm.len(), 2); // persons 1, 3 have the pattern
        assert_eq!(rn.len(), 1); // person 2
        assert_eq!(sr.len(), 1); // person 1 (drug + reaction)
        assert_eq!(sn.len(), 1); // person 3 (drug, no reaction)
    }

    #[test]
    fn empty_cells_are_zero() {
        let g = group();
        let tr = make_tr(&[(1, true)]).unwrap();
        let ts = make_ts(&[(1, true, true)]).unwrap();
        let (counts, _) = run_medical_study(&g, &tr, &ts, 5).unwrap();
        assert_eq!(counts.counts[1][1], 1);
        assert_eq!(counts.counts[0][0], 0);
        assert_eq!(counts.counts[0][1], 0);
        assert_eq!(counts.counts[1][0], 0);
    }

    #[test]
    fn clear_oracle_handles_missing_people() {
        // Person in TS but not TR and vice versa — the join drops them.
        let tr = make_tr(&[(1, true), (99, false)]).unwrap();
        let ts = make_ts(&[(1, true, false), (50, true, true)]).unwrap();
        let clear = medical_counts_in_clear(&tr, &ts).unwrap();
        assert_eq!(clear.counts[1][0], 1);
        assert_eq!(
            clear.counts[0][0] + clear.counts[0][1] + clear.counts[1][1],
            0
        );
    }
}
