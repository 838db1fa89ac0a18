//! Binary `ObsRecord` codec for storelog format v2 — the only record
//! payload encoding the pipeline reads or writes. (The v1 JSON payloads it
//! replaced are retired: see `crates/storelog/MIGRATIONS.md`.)
//!
//! One [`ShardCodec`] per segment shard, shared shape between encoder and
//! decoder: the codec context (interned labels/strings, the name table, and
//! the last observation per FQDN) is exactly the replayed prefix of the
//! shard's committed stream, updated record by record in append order.
//! Nothing about the context is written to disk separately, which keeps the
//! append-only frame/commit/recovery machinery of v1 byte-identical — only
//! what a data payload *means* changed (see `crates/storelog/MIGRATIONS.md`
//! for the wire layout).
//!
//! Two record shapes:
//!
//! - **full** (`tag 0x01`): the first observation of an FQDN in this shard.
//!   The name is introduced inline (label-interned) and the snapshot is
//!   encoded against an empty-snapshot baseline, so unreachable probes —
//!   the overwhelming majority of a feed — cost a handful of bytes.
//! - **delta** (`tag 0x02`): every later observation. Only fields that
//!   differ from the FQDN's previous snapshot are encoded (a field mask),
//!   plus a 16-bit chain check over the previous record's payload bytes.
//!
//! The chain check is what makes *structurally plausible* corruption
//! detectable: frame checksums catch flipped bits, but a whole-frame splice
//! (duplicate / remove / reorder, each frame individually checksum-valid)
//! shifts the codec context. Duplicated inline interns, out-of-range ids,
//! full records for already-observed FQDNs, deltas without a predecessor,
//! and chain-check mismatches each turn such a splice into a hard decode
//! error instead of silently wrong history — the corruption-injection
//! suite pins this.
//!
//! Decoding is total: every path returns [`CodecError`] rather than
//! panicking, and allocations are bounded by the payload slice.

use crate::diff::ChangeKind;
use crate::snapshot::Snapshot;
use dns::{Name, Rcode};
use simcore::SimTime;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use storelog::codec::{
    put_ivarint, put_len_prefixed, put_uvarint, CodecError, CodecResult, Reader,
};
use storelog::intern::InternTable;

use super::persist::{ChangeMeta, ObsRecord};

const TAG_FULL: u8 = 0x01;
const TAG_DELTA: u8 = 0x02;

// Field-mask bits of the snapshot body, in encode order.
const F_RCODE: u32 = 1 << 0;
const F_CNAME: u32 = 1 << 1;
const F_IP: u32 = 1 << 2;
const F_HTTP_STATUS: u32 = 1 << 3;
const F_INDEX_HASH: u32 = 1 << 4;
const F_INDEX_SIZE: u32 = 1 << 5;
const F_TITLE: u32 = 1 << 6;
const F_LANGUAGE: u32 = 1 << 7;
const F_KEYWORDS: u32 = 1 << 8;
const F_META_KEYWORDS: u32 = 1 << 9;
const F_GENERATOR: u32 = 1 << 10;
const F_SITEMAP: u32 = 1 << 11;
const F_SCRIPT_SRCS: u32 = 1 << 12;
const F_IDENTIFIERS: u32 = 1 << 13;
const F_HTML: u32 = 1 << 14;
const F_ALL: u32 = (1 << 15) - 1;

fn kind_code(k: ChangeKind) -> u8 {
    match k {
        ChangeKind::Dns => 0,
        ChangeKind::HttpStatus => 1,
        ChangeKind::Content => 2,
        ChangeKind::Language => 3,
        ChangeKind::SitemapAppeared => 4,
        ChangeKind::SitemapGrew => 5,
        ChangeKind::BecameUnreachable => 6,
        ChangeKind::BecameReachable => 7,
    }
}

fn kind_from_code(c: u8) -> CodecResult<ChangeKind> {
    Ok(match c {
        0 => ChangeKind::Dns,
        1 => ChangeKind::HttpStatus,
        2 => ChangeKind::Content,
        3 => ChangeKind::Language,
        4 => ChangeKind::SitemapAppeared,
        5 => ChangeKind::SitemapGrew,
        6 => ChangeKind::BecameUnreachable,
        7 => ChangeKind::BecameReachable,
        _ => return Err(CodecError::Malformed(format!("unknown change kind {c}"))),
    })
}

/// Streaming v2 codec context of one shard. The same instance both encodes
/// and decodes: a resumed run decodes the committed stream and then keeps
/// appending through the very same context, so live deltas continue exactly
/// where the recorded history stopped.
#[derive(Clone)]
pub struct ShardCodec {
    labels: InternTable,
    strs: InternTable,
    /// Dense name table; ids are assigned in stream order, shared between
    /// observed FQDNs and CNAME targets.
    names: Vec<Name>,
    name_ids: HashMap<Name, u32>,
    /// Per name id: the previous snapshot of that FQDN and the low 16 bits
    /// of FNV-64 over its record's payload bytes (the delta chain check).
    /// `None` for names only ever seen as CNAME targets.
    last: Vec<Option<(Snapshot, u16)>>,
}

impl Default for ShardCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardCodec {
    pub fn new() -> Self {
        ShardCodec {
            labels: InternTable::new(),
            strs: InternTable::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            last: Vec::new(),
        }
    }

    /// Records decoded/encoded through this context so far that introduced
    /// their FQDN (i.e. the number of distinct observed names).
    pub fn observed_names(&self) -> usize {
        self.last.iter().filter(|l| l.is_some()).count()
    }

    // -- name table ---------------------------------------------------------

    fn intern_name(&mut self, name: &Name) -> u32 {
        match self.name_ids.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as u32;
                self.names.push(name.clone());
                self.name_ids.insert(name.clone(), id);
                self.last.push(None);
                id
            }
        }
    }

    fn put_name_labels(&mut self, name: &Name, out: &mut Vec<u8>) {
        put_uvarint(name.labels().len() as u64, out);
        for l in name.labels() {
            self.labels.put_ref(l, out);
        }
    }

    fn read_name_new(&mut self, r: &mut Reader<'_>) -> CodecResult<u32> {
        let n = r.uvarint()?;
        // A Name is ≤ 255 wire octets, so > 127 labels is impossible.
        if n > 127 {
            return Err(CodecError::Malformed(format!("{n} labels in one name")));
        }
        let mut labels = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = self.labels.read_ref(r)?;
            labels.push(self.labels.get(id).to_string());
        }
        let name = Name::from_labels(labels)
            .map_err(|e| CodecError::Malformed(format!("invalid name: {e}")))?;
        if self.name_ids.contains_key(&name) {
            return Err(CodecError::Malformed(format!(
                "duplicate name definition of {name} (duplicated or spliced frame)"
            )));
        }
        let id = self.names.len() as u32;
        self.names.push(name.clone());
        self.name_ids.insert(name, id);
        self.last.push(None);
        Ok(id)
    }

    /// `0` = new name (labels follow), `k>0` = existing id `k-1`.
    fn put_name_ref(&mut self, name: &Name, out: &mut Vec<u8>) -> u32 {
        match self.name_ids.get(name).copied() {
            Some(id) => {
                put_uvarint(id as u64 + 1, out);
                id
            }
            None => {
                put_uvarint(0, out);
                self.put_name_labels(name, out);
                self.intern_name(name)
            }
        }
    }

    fn read_name_ref(&mut self, r: &mut Reader<'_>) -> CodecResult<u32> {
        match r.uvarint()? {
            0 => self.read_name_new(r),
            k => self.check_name_id(k - 1),
        }
    }

    /// `0` = None, `1` = new name, `k>1` = existing id `k-2`.
    fn put_opt_name_ref(&mut self, name: Option<&Name>, out: &mut Vec<u8>) {
        match name {
            None => put_uvarint(0, out),
            Some(n) => match self.name_ids.get(n).copied() {
                Some(id) => put_uvarint(id as u64 + 2, out),
                None => {
                    put_uvarint(1, out);
                    self.put_name_labels(n, out);
                    self.intern_name(n);
                }
            },
        }
    }

    fn read_opt_name_ref(&mut self, r: &mut Reader<'_>) -> CodecResult<Option<u32>> {
        match r.uvarint()? {
            0 => Ok(None),
            1 => self.read_name_new(r).map(Some),
            k => self.check_name_id(k - 2).map(Some),
        }
    }

    fn check_name_id(&self, id: u64) -> CodecResult<u32> {
        if id < self.names.len() as u64 {
            Ok(id as u32)
        } else {
            Err(CodecError::Malformed(format!(
                "name id {id} out of range (table has {})",
                self.names.len()
            )))
        }
    }

    // -- encode -------------------------------------------------------------

    /// Encode `rec` into `out` (cleared first) and advance the context.
    pub fn encode_into(&mut self, rec: &ObsRecord, out: &mut Vec<u8>) {
        out.clear();
        let known = self
            .name_ids
            .get(&rec.snap.fqdn)
            .copied()
            .filter(|&id| self.last[id as usize].is_some());
        let id = match known {
            Some(id) => {
                let (prev, chain) = self.last[id as usize]
                    .take()
                    .expect("`known` holds only names with a previous snapshot");
                out.push(TAG_DELTA);
                put_ivarint(rec.round.0 as i64, out);
                put_uvarint(rec.seq as u64, out);
                put_uvarint(id as u64, out);
                out.extend_from_slice(&chain.to_le_bytes());
                self.put_body(&prev, prev.day, &rec.snap, out);
                id
            }
            None => {
                out.push(TAG_FULL);
                put_ivarint(rec.round.0 as i64, out);
                put_uvarint(rec.seq as u64, out);
                let id = self.put_name_ref(&rec.snap.fqdn, out);
                let base =
                    Snapshot::unreachable(rec.snap.fqdn.clone(), rec.round, Rcode::NoError, None);
                self.put_body(&base, rec.round, &rec.snap, out);
                id
            }
        };
        self.put_change(rec.change.as_ref(), out);
        let chain = (storelog::frame::fnv64(out) & 0xffff) as u16;
        self.last[id as usize] = Some((rec.snap.clone(), chain));
    }

    /// Snapshot body: day delta + field mask + only the differing fields,
    /// against `base` (an empty snapshot for full records, the previous
    /// snapshot for deltas).
    fn put_body(&mut self, base: &Snapshot, base_day: SimTime, snap: &Snapshot, out: &mut Vec<u8>) {
        put_ivarint(snap.day.0 as i64 - base_day.0 as i64, out);
        let mut mask = 0u32;
        if snap.rcode != base.rcode {
            mask |= F_RCODE;
        }
        if snap.cname_target != base.cname_target {
            mask |= F_CNAME;
        }
        if snap.ip != base.ip {
            mask |= F_IP;
        }
        if snap.http_status != base.http_status {
            mask |= F_HTTP_STATUS;
        }
        if snap.index_hash != base.index_hash {
            mask |= F_INDEX_HASH;
        }
        if snap.index_size != base.index_size {
            mask |= F_INDEX_SIZE;
        }
        // A shared page (an unchanged crawl, or a delta decoded against
        // this very context) differs in nothing.
        if !Arc::ptr_eq(&snap.page, &base.page) {
            let (a, b) = (&*snap.page, &*base.page);
            for (differs, bit) in [
                (a.title != b.title, F_TITLE),
                (a.language != b.language, F_LANGUAGE),
                (a.keywords != b.keywords, F_KEYWORDS),
                (a.meta_keywords != b.meta_keywords, F_META_KEYWORDS),
                (a.generator != b.generator, F_GENERATOR),
                (a.script_srcs != b.script_srcs, F_SCRIPT_SRCS),
                (a.identifiers != b.identifiers, F_IDENTIFIERS),
            ] {
                if differs {
                    mask |= bit;
                }
            }
        }
        if snap.sitemap_bytes != base.sitemap_bytes {
            mask |= F_SITEMAP;
        }
        if snap.html != base.html {
            mask |= F_HTML;
        }
        put_uvarint(mask as u64, out);

        if mask & F_RCODE != 0 {
            out.push(snap.rcode.code());
        }
        if mask & F_CNAME != 0 {
            self.put_opt_name_ref(snap.cname_target.as_ref(), out);
        }
        if mask & F_IP != 0 {
            match snap.ip {
                None => out.push(0),
                Some(ip) => {
                    out.push(1);
                    out.extend_from_slice(&ip.octets());
                }
            }
        }
        if mask & F_HTTP_STATUS != 0 {
            put_uvarint(snap.http_status.map_or(0, |s| s as u64 + 1), out);
        }
        if mask & F_INDEX_HASH != 0 {
            out.extend_from_slice(&snap.index_hash.to_le_bytes());
        }
        if mask & F_INDEX_SIZE != 0 {
            put_uvarint(snap.index_size as u64, out);
        }
        if mask & F_TITLE != 0 {
            self.strs.put_opt_ref(snap.page.title.as_deref(), out);
        }
        if mask & F_LANGUAGE != 0 {
            self.strs.put_opt_ref(snap.page.language.as_deref(), out);
        }
        if mask & F_KEYWORDS != 0 {
            self.put_str_list(&snap.page.keywords, out);
        }
        if mask & F_META_KEYWORDS != 0 {
            self.put_str_list(&snap.page.meta_keywords, out);
        }
        if mask & F_GENERATOR != 0 {
            self.strs.put_opt_ref(snap.page.generator.as_deref(), out);
        }
        if mask & F_SITEMAP != 0 {
            match snap.sitemap_bytes {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    put_uvarint(b, out);
                }
            }
        }
        if mask & F_SCRIPT_SRCS != 0 {
            self.put_str_list(&snap.page.script_srcs, out);
        }
        if mask & F_IDENTIFIERS != 0 {
            self.put_str_list(&snap.page.identifiers, out);
        }
        if mask & F_HTML != 0 {
            match &snap.html {
                None => out.push(0),
                Some(h) => {
                    out.push(1);
                    put_len_prefixed(h.as_bytes(), out);
                }
            }
        }
    }

    fn put_str_list(&mut self, items: &[String], out: &mut Vec<u8>) {
        put_uvarint(items.len() as u64, out);
        for s in items {
            self.strs.put_ref(s, out);
        }
    }

    fn put_change(&mut self, change: Option<&ChangeMeta>, out: &mut Vec<u8>) {
        let Some(m) = change else {
            out.push(0);
            return;
        };
        out.push(1);
        put_uvarint(m.kinds.len() as u64, out);
        for &k in &m.kinds {
            out.push(kind_code(k));
        }
        let mut flags = 0u8;
        if m.before_language.is_some() {
            flags |= 1;
        }
        if m.before_sitemap_bytes.is_some() {
            flags |= 2;
        }
        if m.before_serving {
            flags |= 4;
        }
        out.push(flags);
        if let Some(l) = &m.before_language {
            self.strs.put_ref(l, out);
        }
        if let Some(b) = m.before_sitemap_bytes {
            put_uvarint(b, out);
        }
        self.put_str_list(&m.before_keywords, out);
    }

    // -- decode -------------------------------------------------------------

    /// Decode one payload and advance the context. The payload must be the
    /// next record of this shard's stream in append order.
    pub fn decode(&mut self, payload: &[u8]) -> CodecResult<ObsRecord> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let round_raw = r.ivarint()?;
        let round = SimTime(i32::try_from(round_raw).map_err(|_| {
            CodecError::Malformed(format!("round {round_raw} outside SimTime range"))
        })?);
        let seq_raw = r.uvarint()?;
        let seq = u32::try_from(seq_raw)
            .map_err(|_| CodecError::Malformed(format!("seq {seq_raw} overflows u32")))?;

        let (id, snap) = match tag {
            TAG_FULL => {
                let id = self.read_name_ref(&mut r)?;
                if self.last[id as usize].is_some() {
                    return Err(CodecError::Malformed(format!(
                        "full record for already-observed fqdn {} \
                         (duplicated or spliced frame)",
                        self.names[id as usize]
                    )));
                }
                let base = Snapshot::unreachable(
                    self.names[id as usize].clone(),
                    round,
                    Rcode::NoError,
                    None,
                );
                let snap = self.read_body(base, round, &mut r)?;
                (id, snap)
            }
            TAG_DELTA => {
                let id_raw = r.uvarint()?;
                let id = self.check_name_id(id_raw)?;
                let Some((prev, chain)) = self.last[id as usize].clone() else {
                    return Err(CodecError::Malformed(format!(
                        "delta record for never-observed fqdn {} \
                         (removed or reordered frame)",
                        self.names[id as usize]
                    )));
                };
                let got = r.u16_le()?;
                if got != chain {
                    return Err(CodecError::Malformed(format!(
                        "delta chain check mismatch for {} \
                         (expected {chain:#06x}, payload says {got:#06x}; \
                         removed or reordered frame)",
                        self.names[id as usize]
                    )));
                }
                let prev_day = prev.day;
                let snap = self.read_body(prev, prev_day, &mut r)?;
                (id, snap)
            }
            t => {
                return Err(CodecError::Malformed(format!(
                    "unknown record tag {t:#04x}"
                )))
            }
        };

        let change = self.read_change(&mut r)?;
        r.expect_end()?;
        let chain = (storelog::frame::fnv64(payload) & 0xffff) as u16;
        self.last[id as usize] = Some((snap.clone(), chain));
        Ok(ObsRecord {
            round,
            seq,
            snap,
            change,
        })
    }

    /// Apply a masked body on top of `base` (consumed and returned).
    fn read_body(
        &mut self,
        mut snap: Snapshot,
        base_day: SimTime,
        r: &mut Reader<'_>,
    ) -> CodecResult<Snapshot> {
        let day_delta = r.ivarint()?;
        let day = (base_day.0 as i64)
            .checked_add(day_delta)
            .and_then(|d| i32::try_from(d).ok());
        snap.day = SimTime(day.ok_or_else(|| {
            CodecError::Malformed(format!("day delta {day_delta} outside SimTime range"))
        })?);

        let mask_raw = r.uvarint()?;
        if mask_raw & !(F_ALL as u64) != 0 {
            return Err(CodecError::Malformed(format!(
                "unknown field mask bits {mask_raw:#x}"
            )));
        }
        let mask = mask_raw as u32;

        if mask & F_RCODE != 0 {
            let c = r.u8()?;
            snap.rcode = Rcode::from_code(c)
                .ok_or_else(|| CodecError::Malformed(format!("unknown rcode {c}")))?;
        }
        if mask & F_CNAME != 0 {
            snap.cname_target = self
                .read_opt_name_ref(r)?
                .map(|id| self.names[id as usize].clone());
        }
        if mask & F_IP != 0 {
            snap.ip = match r.u8()? {
                0 => None,
                1 => {
                    let o = r.bytes(4)?;
                    Some(Ipv4Addr::new(o[0], o[1], o[2], o[3]))
                }
                b => {
                    return Err(CodecError::Malformed(format!(
                        "bad option marker {b} for ip"
                    )))
                }
            };
        }
        if mask & F_HTTP_STATUS != 0 {
            snap.http_status = match r.uvarint()? {
                0 => None,
                v => Some(u16::try_from(v - 1).map_err(|_| {
                    CodecError::Malformed(format!("http status {} overflows u16", v - 1))
                })?),
            };
        }
        if mask & F_INDEX_HASH != 0 {
            snap.index_hash = r.u64_le()?;
        }
        if mask & F_INDEX_SIZE != 0 {
            let v = r.uvarint()?;
            snap.index_size = u32::try_from(v)
                .map_err(|_| CodecError::Malformed(format!("index size {v} overflows u32")))?;
        }
        if mask & F_TITLE != 0 {
            snap.page_mut().title = self.read_opt_str(r)?;
        }
        if mask & F_LANGUAGE != 0 {
            snap.page_mut().language = self.read_opt_str(r)?;
        }
        if mask & F_KEYWORDS != 0 {
            snap.page_mut().keywords = self.read_str_list(r)?;
        }
        if mask & F_META_KEYWORDS != 0 {
            snap.page_mut().meta_keywords = self.read_str_list(r)?;
        }
        if mask & F_GENERATOR != 0 {
            snap.page_mut().generator = self.read_opt_str(r)?;
        }
        if mask & F_SITEMAP != 0 {
            snap.sitemap_bytes = match r.u8()? {
                0 => None,
                1 => Some(r.uvarint()?),
                b => {
                    return Err(CodecError::Malformed(format!(
                        "bad option marker {b} for sitemap bytes"
                    )))
                }
            };
        }
        if mask & F_SCRIPT_SRCS != 0 {
            snap.page_mut().script_srcs = self.read_str_list(r)?;
        }
        if mask & F_IDENTIFIERS != 0 {
            snap.page_mut().identifiers = self.read_str_list(r)?;
        }
        if mask & F_HTML != 0 {
            snap.html = match r.u8()? {
                0 => None,
                1 => {
                    let bytes = r.len_prefixed()?;
                    Some(
                        std::str::from_utf8(bytes)
                            .map_err(|_| CodecError::Malformed("html is not UTF-8".into()))?
                            .to_string(),
                    )
                }
                b => {
                    return Err(CodecError::Malformed(format!(
                        "bad option marker {b} for html"
                    )))
                }
            };
        }
        Ok(snap)
    }

    fn read_opt_str(&mut self, r: &mut Reader<'_>) -> CodecResult<Option<String>> {
        Ok(self
            .strs
            .read_opt_ref(r)?
            .map(|id| self.strs.get(id).to_string()))
    }

    fn read_str_list(&mut self, r: &mut Reader<'_>) -> CodecResult<Vec<String>> {
        let n = r.uvarint()?;
        // Each list element costs ≥ 1 byte on the wire; a count past the
        // remaining bytes is a corrupt length, not a huge allocation.
        if n > r.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = self.strs.read_ref(r)?;
            out.push(self.strs.get(id).to_string());
        }
        Ok(out)
    }

    fn read_change(&mut self, r: &mut Reader<'_>) -> CodecResult<Option<ChangeMeta>> {
        match r.u8()? {
            0 => Ok(None),
            1 => {
                let n = r.uvarint()?;
                if n > 8 {
                    return Err(CodecError::Malformed(format!("{n} change kinds (8 exist)")));
                }
                let mut kinds = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    kinds.push(kind_from_code(r.u8()?)?);
                }
                let flags = r.u8()?;
                if flags & !0x07 != 0 {
                    return Err(CodecError::Malformed(format!(
                        "unknown change flags {flags:#04x}"
                    )));
                }
                let before_language = if flags & 1 != 0 {
                    let id = self.strs.read_ref(r)?;
                    Some(self.strs.get(id).to_string())
                } else {
                    None
                };
                let before_sitemap_bytes = if flags & 2 != 0 {
                    Some(r.uvarint()?)
                } else {
                    None
                };
                Ok(Some(ChangeMeta {
                    kinds,
                    before_language,
                    before_sitemap_bytes,
                    before_serving: flags & 4 != 0,
                    before_keywords: self.read_str_list(r)?,
                }))
            }
            b => Err(CodecError::Malformed(format!(
                "bad option marker {b} for change meta"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(fqdn: &str, day: i32) -> Snapshot {
        Snapshot::unreachable(fqdn.parse().unwrap(), SimTime(day), Rcode::NxDomain, None)
    }

    fn serving(fqdn: &str, day: i32) -> Snapshot {
        let mut s = snap(fqdn, day);
        s.rcode = Rcode::NoError;
        s.cname_target = Some("app.pages.example".parse().unwrap());
        s.ip = Some(Ipv4Addr::new(10, 1, 2, 3));
        s.http_status = Some(200);
        s.index_hash = 0xfeed_beef;
        s.index_size = 4821;
        s.sitemap_bytes = Some(120_000);
        let page = s.page_mut();
        page.title = Some("Welcome — «démo»".into());
        page.language = Some("fr".into());
        page.keywords = vec!["casino".into(), "slots".into()];
        page.meta_keywords = vec!["casino".into()];
        page.generator = Some("WordPress 6.2".into());
        page.script_srcs = vec!["https://cdn.example/app.js".into()];
        page.identifiers = vec!["ua-1234".into()];
        s.html = Some("<html lang=\"fr\">🦀</html>".into());
        s
    }

    fn rec(round: i32, seq: u32, snap: Snapshot, change: Option<ChangeMeta>) -> ObsRecord {
        ObsRecord {
            round: SimTime(round),
            seq,
            snap,
            change,
        }
    }

    fn assert_roundtrip(records: &[ObsRecord]) -> Vec<Vec<u8>> {
        let mut enc = ShardCodec::new();
        let mut payloads = Vec::new();
        for r in records {
            let mut buf = Vec::new();
            enc.encode_into(r, &mut buf);
            payloads.push(buf);
        }
        let mut dec = ShardCodec::new();
        for (r, p) in records.iter().zip(&payloads) {
            let back = dec.decode(p).unwrap();
            assert_eq!(back.round, r.round);
            assert_eq!(back.seq, r.seq);
            assert_eq!(back.snap, r.snap);
            match (&back.change, &r.change) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.kinds, b.kinds);
                    assert_eq!(a.before_language, b.before_language);
                    assert_eq!(a.before_sitemap_bytes, b.before_sitemap_bytes);
                    assert_eq!(a.before_serving, b.before_serving);
                    assert_eq!(a.before_keywords, b.before_keywords);
                }
                _ => panic!("change presence mismatch"),
            }
        }
        payloads
    }

    #[test]
    fn full_then_delta_roundtrip() {
        let records = vec![
            rec(0, 0, snap("a.cloud.example", 0), None),
            rec(0, 1, serving("b.cloud.example", 0), None),
            rec(7, 0, snap("a.cloud.example", 7), None),
            rec(
                7,
                1,
                serving("b.cloud.example", 7),
                Some(ChangeMeta {
                    kinds: vec![ChangeKind::Content, ChangeKind::Language],
                    before_language: Some("en".into()),
                    before_sitemap_bytes: None,
                    before_serving: true,
                    before_keywords: vec!["casino".into()],
                }),
            ),
        ];
        let payloads = assert_roundtrip(&records);
        // The unchanged repeat observation is a handful of bytes.
        assert!(
            payloads[2].len() < 16,
            "no-change delta is {} bytes",
            payloads[2].len()
        );
        // The delta of an identical serving snapshot shares every string.
        assert!(
            payloads[3].len() < payloads[1].len() / 2,
            "delta {} vs full {}",
            payloads[3].len(),
            payloads[1].len()
        );
    }

    #[test]
    fn deltas_encode_only_changed_fields() {
        let mut before = serving("x.cloud.example", 0);
        before.html = None;
        let mut after = before.clone();
        after.day = SimTime(7);
        after.http_status = Some(404);
        after.index_hash = 1;
        let records = vec![rec(0, 0, before, None), rec(7, 0, after, None)];
        let payloads = assert_roundtrip(&records);
        assert!(
            payloads[1].len() < 32,
            "two-field delta is {} bytes",
            payloads[1].len()
        );
    }

    #[test]
    fn cname_targets_share_the_name_table() {
        let mut a = snap("a.example", 0);
        a.cname_target = Some("shared.target.example".parse().unwrap());
        let mut b = snap("b.example", 0);
        b.cname_target = Some("shared.target.example".parse().unwrap());
        let records = vec![rec(0, 0, a, None), rec(0, 1, b, None)];
        let payloads = assert_roundtrip(&records);
        assert!(
            payloads[1].len() < payloads[0].len(),
            "second cname ref should be an id, not inline"
        );
    }

    #[test]
    fn duplicated_frame_is_rejected() {
        let mut enc = ShardCodec::new();
        let mut p0 = Vec::new();
        enc.encode_into(&rec(0, 0, snap("dup.example", 0), None), &mut p0);
        let mut dec = ShardCodec::new();
        dec.decode(&p0).unwrap();
        // Same frame again: the full record's name is already defined.
        let err = dec.decode(&p0).unwrap_err();
        assert!(matches!(err, CodecError::Malformed(_)), "{err}");
    }

    #[test]
    fn removed_frame_breaks_the_chain() {
        let mut enc = ShardCodec::new();
        let records = vec![
            rec(0, 0, snap("chain.example", 0), None),
            rec(7, 0, snap("chain.example", 7), None),
            rec(14, 0, snap("chain.example", 14), None),
        ];
        let mut payloads = Vec::new();
        for r in &records {
            let mut b = Vec::new();
            enc.encode_into(r, &mut b);
            payloads.push(b);
        }
        // Drop the middle record: the day-14 delta now chains to day 0.
        let mut dec = ShardCodec::new();
        dec.decode(&payloads[0]).unwrap();
        let err = dec.decode(&payloads[2]).unwrap_err();
        assert!(
            err.to_string().contains("chain check"),
            "expected chain mismatch, got {err}"
        );
    }

    #[test]
    fn delta_without_predecessor_is_rejected() {
        let mut enc = ShardCodec::new();
        let mut p0 = Vec::new();
        enc.encode_into(&rec(0, 0, snap("first.example", 0), None), &mut p0);
        let mut p1 = Vec::new();
        enc.encode_into(&rec(7, 0, snap("first.example", 7), None), &mut p1);
        // Replay only the delta: its name id is out of range in a fresh
        // context.
        let mut dec = ShardCodec::new();
        let err = dec.decode(&p1).unwrap_err();
        assert!(matches!(err, CodecError::Malformed(_)), "{err}");
    }

    #[test]
    fn decode_never_panics_on_mutated_payloads() {
        let mut enc = ShardCodec::new();
        let mut payloads = Vec::new();
        for (i, r) in [
            rec(0, 0, serving("fuzz.example", 0), None),
            rec(7, 0, snap("fuzz.example", 7), None),
        ]
        .iter()
        .enumerate()
        {
            let mut b = Vec::new();
            enc.encode_into(r, &mut b);
            let _ = i;
            payloads.push(b);
        }
        // Flip every byte position in turn (and truncate at every length);
        // decode must return — Ok or Err — without panicking.
        for p in &payloads {
            for i in 0..p.len() {
                let mut dec = ShardCodec::new();
                let mut m = p.clone();
                m[i] ^= 0x5a;
                let _ = dec.decode(&m);
                let mut dec = ShardCodec::new();
                let _ = dec.decode(&p[..i]);
            }
        }
    }
}
