//! Decision provenance: a bounded flight recorder for scheduler outcomes.
//!
//! Telemetry's counters and spans say *what* happened; this module records
//! *why*. Every Algorithm 1 outcome — placement, rejection, preemption
//! wait, partition reconfigure — plus gateway admission verdicts,
//! preemption victim selection, kube-scheduler node ranking, and
//! remediation actions can append a structured [`DecisionRecord`]: the
//! candidate set the decision actually examined, per-candidate scores, the
//! winning comparator chain, and a typed [`ReasonCode`] when the outcome
//! is a refusal or a hold.
//!
//! The [`FlightRecorder`] follows the [`crate::Telemetry`] handle's
//! zero-cost-when-disabled discipline: a disabled handle is a `None` and
//! every call is one `Option` branch. Enabled, it is a fixed-capacity ring
//! (oldest records evicted and counted, flight-recorder style) behind one
//! uncontended mutex. Records are keyed by the sharePod's uid and its
//! existing `TraceCtx` trace id, so provenance joins the causal trace.
//!
//! The scratch collector threaded through the decision paths,
//! [`SchedProv`], is a plain struct: when off, every capture call is a
//! single branch and the reason slot (a `Copy` enum, no allocation) is
//! still tracked — so rejection-reason metrics agree whether or not the
//! recorder is installed. Candidate capture is capped at
//! [`SchedProv::MAX_CANDIDATES`] per record (the full count examined is
//! kept in [`DecisionRecord::considered`]), bounding both memory and the
//! hot-path cost of recording.

use std::sync::Arc;

use ks_sim_core::time::SimTime;
use parking_lot::Mutex;
use serde::Serialize;

/// Why a request was refused or held — the typed rejection-reason
/// taxonomy. One label per variant feeds the
/// `ks_sched_rejections_total{reason}` counter, so records and counters
/// agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReasonCode {
    /// No schedulable device has residual capacity and no new device can
    /// help (or the caller refuses to grow the pool).
    NoCapacity,
    /// The binding affinity target carries a different exclusion label.
    AffinityExcluded,
    /// The chosen device already hosts the request's anti-affinity label.
    AntiAffinityConflict,
    /// The binding affinity target exists but lacks residual capacity.
    AffinityNoCapacity,
    /// Spatial: the demand exceeds a whole device (no covering profile).
    DemandOverCapacity,
    /// Spatial: enough free slots exist, but no legal slice start — the
    /// capacity is stranded purely by slice geometry.
    SliceGeometryStranded,
    /// An explicitly pinned GPUID cannot host the demand.
    PinnedUnfit,
    /// Gateway: over quota, parked in the admission queue.
    QuotaParked,
    /// Gateway: over quota and the admission queue is full.
    QueueFull,
    /// Gateway: the tenant's token bucket is empty.
    RateLimited,
    /// Gateway: the token did not authenticate.
    Unauthenticated,
    /// Held `Pending` while lower-priority work is evicted on its behalf.
    AwaitingPreemption,
    /// Held `Pending` while a partition reshape it triggered completes.
    AwaitingReconfigure,
}

impl ReasonCode {
    /// Every variant, for exhaustive taxonomy checks.
    pub const ALL: [ReasonCode; 13] = [
        ReasonCode::NoCapacity,
        ReasonCode::AffinityExcluded,
        ReasonCode::AntiAffinityConflict,
        ReasonCode::AffinityNoCapacity,
        ReasonCode::DemandOverCapacity,
        ReasonCode::SliceGeometryStranded,
        ReasonCode::PinnedUnfit,
        ReasonCode::QuotaParked,
        ReasonCode::QueueFull,
        ReasonCode::RateLimited,
        ReasonCode::Unauthenticated,
        ReasonCode::AwaitingPreemption,
        ReasonCode::AwaitingReconfigure,
    ];

    /// Stable metric label (the `reason` dimension of
    /// `ks_sched_rejections_total`), identical to the serde rendering.
    pub fn label(self) -> &'static str {
        match self {
            ReasonCode::NoCapacity => "no_capacity",
            ReasonCode::AffinityExcluded => "affinity_excluded",
            ReasonCode::AntiAffinityConflict => "anti_affinity_conflict",
            ReasonCode::AffinityNoCapacity => "affinity_no_capacity",
            ReasonCode::DemandOverCapacity => "demand_over_capacity",
            ReasonCode::SliceGeometryStranded => "slice_geometry_stranded",
            ReasonCode::PinnedUnfit => "pinned_unfit",
            ReasonCode::QuotaParked => "quota_parked",
            ReasonCode::QueueFull => "queue_full",
            ReasonCode::RateLimited => "rate_limited",
            ReasonCode::Unauthenticated => "unauthenticated",
            ReasonCode::AwaitingPreemption => "awaiting_preemption",
            ReasonCode::AwaitingReconfigure => "awaiting_reconfigure",
        }
    }

    /// Parses a metric label back to the code (taxonomy round-trip).
    pub fn from_label(label: &str) -> Option<ReasonCode> {
        ReasonCode::ALL.into_iter().find(|r| r.label() == label)
    }
}

// The vendored serde stand-in has no `#[serde(rename_all)]`; serialize
// the taxonomy enums by hand so the JSON rendering IS the metric label.
impl Serialize for ReasonCode {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// Which decision point produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Algorithm 1 (any path) deciding a sharePod.
    Schedule,
    /// The gateway's admission pipeline (auth/rate/quota gates).
    Admission,
    /// kube-scheduler node filtering and ranking for a pod.
    NodeRank,
    /// Gateway preemption: victim selection for a starved sharePod.
    PreemptVictim,
    /// A partition reconfiguration (drain → reshape → activate).
    Reconfigure,
    /// A remediation controller action.
    Remediation,
}

impl DecisionKind {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Schedule => "schedule",
            DecisionKind::Admission => "admission",
            DecisionKind::NodeRank => "node_rank",
            DecisionKind::PreemptVictim => "preempt_victim",
            DecisionKind::Reconfigure => "reconfigure",
            DecisionKind::Remediation => "remediation",
        }
    }
}

impl Serialize for DecisionKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.label().to_string())
    }
}

/// What a decision concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Bound to an existing target (vGPU, slice, or node).
    Placed {
        /// The chosen target id.
        target: SmallStr,
    },
    /// A fresh vGPU was created to host the request.
    NewDevice {
        /// The new device's id.
        target: SmallStr,
    },
    /// A partition reconfiguration was ordered on `target`.
    Reconfigure {
        /// The device being reshaped.
        target: SmallStr,
    },
    /// Refused with a typed reason.
    Rejected {
        /// Why.
        reason: ReasonCode,
    },
    /// Still pending, held with a typed reason (not a terminal refusal).
    Held {
        /// Why.
        reason: ReasonCode,
    },
    /// Evicted from `target` on behalf of higher-priority work.
    Evicted {
        /// The device the victim lost.
        target: SmallStr,
    },
    /// A named action was executed against `target`.
    Action {
        /// Action label (e.g. `cordon_node`).
        name: String,
        /// Target of the action.
        target: SmallStr,
    },
}

impl Outcome {
    /// The outcome class label (stable across targets/reasons).
    pub fn class(&self) -> &'static str {
        match self {
            Outcome::Placed { .. } => "placed",
            Outcome::NewDevice { .. } => "new_device",
            Outcome::Reconfigure { .. } => "reconfigure",
            Outcome::Rejected { .. } => "rejected",
            Outcome::Held { .. } => "held",
            Outcome::Evicted { .. } => "evicted",
            Outcome::Action { .. } => "action",
        }
    }

    /// The typed reason, for refusal/hold outcomes.
    pub fn reason(&self) -> Option<ReasonCode> {
        match self {
            Outcome::Rejected { reason } | Outcome::Held { reason } => Some(*reason),
            _ => None,
        }
    }

    /// The target id, for outcomes that have one.
    pub fn target(&self) -> Option<&str> {
        match self {
            Outcome::Placed { target }
            | Outcome::NewDevice { target }
            | Outcome::Reconfigure { target }
            | Outcome::Evicted { target }
            | Outcome::Action { target, .. } => Some(target),
            Outcome::Rejected { .. } | Outcome::Held { .. } => None,
        }
    }
}

impl Serialize for Outcome {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let mut entries = vec![("class".to_string(), Value::Str(self.class().to_string()))];
        match self {
            Outcome::Placed { target }
            | Outcome::NewDevice { target }
            | Outcome::Reconfigure { target }
            | Outcome::Evicted { target } => {
                entries.push((
                    "target".to_string(),
                    Value::Str(target.as_str().to_string()),
                ));
            }
            Outcome::Rejected { reason } | Outcome::Held { reason } => {
                entries.push(("reason".to_string(), reason.to_value()));
            }
            Outcome::Action { name, target } => {
                entries.push(("name".to_string(), Value::Str(name.clone())));
                entries.push((
                    "target".to_string(),
                    Value::Str(target.as_str().to_string()),
                ));
            }
        }
        Value::Map(entries)
    }
}

/// Compact candidate-target string. Inline-only and `Copy`: ids up to 22
/// bytes — every GPUID, node name, and device target the schedulers emit
/// — are stored verbatim; a longer name is truncated at a char boundary
/// and marked with a trailing `~`. Keeping the heap out entirely makes
/// [`Candidate`] plain old data, so capturing a candidate list into the
/// ring is a flat memcpy with no per-entry branch, drop, or allocation —
/// that is what keeps the recorder inside its throughput bound.
/// Dereferences to `str`.
#[derive(Clone, Copy)]
pub struct SmallStr {
    len: u8,
    buf: [u8; 22],
}

impl SmallStr {
    /// The empty string, const-constructible (inline-array fill value).
    pub const EMPTY: SmallStr = SmallStr {
        len: 0,
        buf: [0; 22],
    };

    /// The string view.
    #[inline]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).expect("inline bytes are utf-8")
    }
}

impl From<&str> for SmallStr {
    #[inline]
    fn from(s: &str) -> Self {
        let mut buf = [0u8; 22];
        if s.len() <= 22 {
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr {
                len: s.len() as u8,
                buf,
            }
        } else {
            let mut cut = 21;
            while !s.is_char_boundary(cut) {
                cut -= 1;
            }
            buf[..cut].copy_from_slice(&s.as_bytes()[..cut]);
            buf[cut] = b'~';
            SmallStr {
                len: cut as u8 + 1,
                buf,
            }
        }
    }
}

impl From<String> for SmallStr {
    fn from(s: String) -> Self {
        SmallStr::from(s.as_str())
    }
}

impl std::ops::Deref for SmallStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for SmallStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<str> for SmallStr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SmallStr {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Serialize for SmallStr {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_string())
    }
}

/// One candidate the decision examined, with the score the comparator
/// ranked it by.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CandidateScore {
    /// Candidate id (vGPU or node).
    pub target: SmallStr,
    /// The comparator's score for this candidate: the fit key on the
    /// token substrate, the fragmentation score on the spatial substrate,
    /// the free fraction for node ranking, the eviction count for victim
    /// selection.
    pub score: f64,
    /// Which placement rule examined it (`best_fit`, `worst_fit`,
    /// `affinity`, `idle`, `frag_score`, `reconfigure`, `node_score`,
    /// `fewest_evictions`).
    pub rule: &'static str,
    /// Whether the comparator chain picked this candidate.
    pub chosen: bool,
}

/// Inline, allocation-free list of examined candidates. Sized at
/// [`SchedProv::MAX_CANDIDATES`] plus one slot so
/// [`SchedProv::choose`] can always append the winner even when the scan
/// capped out. Dereferences to the captured slice.
#[derive(Clone)]
pub struct CandidateList {
    items: [CandidateScore; CandidateList::CAP],
    len: u8,
}

impl CandidateList {
    const CAP: usize = SchedProv::MAX_CANDIDATES + 1;
    const EMPTY_ITEM: CandidateScore = CandidateScore {
        target: SmallStr::EMPTY,
        score: 0.0,
        rule: "",
        chosen: false,
    };

    /// An empty list.
    pub const fn new() -> Self {
        CandidateList {
            items: [Self::EMPTY_ITEM; Self::CAP],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, c: CandidateScore) {
        if (self.len as usize) < Self::CAP {
            self.items[self.len as usize] = c;
            self.len += 1;
        }
    }

    #[inline]
    fn visible_mut(&mut self) -> &mut [CandidateScore] {
        &mut self.items[..self.len as usize]
    }

    /// Overwrites this list with `other`'s visible entries — the
    /// in-place ring-capture path. [`CandidateScore`] is plain old data,
    /// so this is one flat memcpy of the visible prefix.
    #[inline]
    fn copy_from(&mut self, other: &CandidateList) {
        let n = other.len as usize;
        self.items[..n].copy_from_slice(&other.items[..n]);
        self.len = other.len;
    }
}

impl Default for CandidateList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for CandidateList {
    type Target = [CandidateScore];
    fn deref(&self) -> &[CandidateScore] {
        &self.items[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a CandidateList {
    type Item = &'a CandidateScore;
    type IntoIter = std::slice::Iter<'a, CandidateScore>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for CandidateList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for CandidateList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Serialize for CandidateList {
    fn to_value(&self) -> serde::Value {
        Serialize::to_value(&**self)
    }
}

/// Inline, allocation-free comparator chain. Steps beyond the fixed
/// capacity are counted in `dropped` rather than stored — no decision
/// path today exceeds it. Dereferences to the stored steps.
#[derive(Clone)]
pub struct ChainList {
    items: [std::borrow::Cow<'static, str>; ChainList::CAP],
    len: u8,
    dropped: u16,
}

impl ChainList {
    const CAP: usize = 8;
    const EMPTY_STEP: std::borrow::Cow<'static, str> = std::borrow::Cow::Borrowed("");

    /// An empty chain.
    pub const fn new() -> Self {
        ChainList {
            items: [Self::EMPTY_STEP; Self::CAP],
            len: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, step: std::borrow::Cow<'static, str>) {
        if (self.len as usize) < Self::CAP {
            self.items[self.len as usize] = step;
            self.len += 1;
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Steps that overflowed the fixed capacity (0 in practice).
    pub fn dropped(&self) -> usize {
        self.dropped as usize
    }

    /// Overwrites this chain with `other`'s visible steps, cloning only
    /// those — the in-place ring-capture path.
    #[inline]
    fn copy_from(&mut self, other: &ChainList) {
        for (dst, src) in self
            .items
            .iter_mut()
            .zip(&other.items[..other.len as usize])
        {
            dst.clone_from(src);
        }
        self.len = other.len;
        self.dropped = other.dropped;
    }
}

impl Default for ChainList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for ChainList {
    type Target = [std::borrow::Cow<'static, str>];
    fn deref(&self) -> &[std::borrow::Cow<'static, str>] {
        &self.items[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a ChainList {
    type Item = &'a std::borrow::Cow<'static, str>;
    type IntoIter = std::slice::Iter<'a, std::borrow::Cow<'static, str>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for ChainList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for ChainList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Serialize for ChainList {
    fn to_value(&self) -> serde::Value {
        Serialize::to_value(&**self)
    }
}

/// One structured provenance record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// Monotone sequence number (global across the recorder); per-sharePod
    /// record order is the `seq` order.
    pub seq: u64,
    /// When the decision ran.
    pub at: SimTime,
    /// SharePod (or pod) uid the decision was about; 0 = none.
    pub sp: u64,
    /// Trace id of the subject's `TraceCtx` (0 = untraced) — the join key
    /// into the causal trace.
    pub trace: u64,
    /// Which decision point produced this record.
    pub kind: DecisionKind,
    /// What it concluded.
    pub outcome: Outcome,
    /// The candidates examined (capped at [`SchedProv::MAX_CANDIDATES`];
    /// the chosen candidate is always present even past the cap). Stored
    /// inline — capturing a record performs no per-candidate allocation.
    pub candidates: CandidateList,
    /// Total candidates examined, including any beyond the capture cap.
    pub considered: usize,
    /// The winning comparator chain: one human-readable step per rule the
    /// decision walked. Static steps (the common case on the hot paths)
    /// are borrowed, not allocated; the list itself is inline.
    pub chain: ChainList,
    /// Extra key/value context (mode, displaced count, tenant, ...).
    pub fields: Vec<(String, String)>,
}

/// Per-decision scratch collector threaded through the decision paths.
///
/// The typed [`ReasonCode`] is tracked unconditionally: it is a `Copy`
/// store on rejection paths only, and keeping it live means
/// `ks_sched_rejections_total` uses the same taxonomy whether or not a
/// recorder is installed. Everything else lives in one heap block that
/// only an on collector has. `SchedProv::off()` is therefore two words:
/// building, resetting and dropping it touches no capture state, and
/// every capture call is one branch. `SchedProv::on()` allocates the
/// block once, so a batch drain that reuses one collector allocates once
/// per batch, not per decision.
#[derive(Debug, Default)]
pub struct SchedProv {
    reason: Option<ReasonCode>,
    capture: Option<Box<Capture>>,
}

/// An on collector's capture state.
#[derive(Debug, Default)]
struct Capture {
    candidates: CandidateList,
    considered: usize,
    chain: ChainList,
}

/// What an off collector reads as: nothing captured.
static NO_CAPTURE: Capture = Capture {
    candidates: CandidateList::new(),
    considered: 0,
    chain: ChainList::new(),
};

impl SchedProv {
    /// Captured candidates per record; `considered` keeps the full count.
    pub const MAX_CANDIDATES: usize = 8;

    /// An inert collector (reason-only).
    pub fn off() -> Self {
        SchedProv::default()
    }

    /// A capturing collector.
    pub fn on() -> Self {
        SchedProv {
            reason: None,
            capture: Some(Box::default()),
        }
    }

    /// A collector matching a recorder's enablement.
    pub fn for_recorder(recorder: &FlightRecorder) -> Self {
        if recorder.is_enabled() {
            SchedProv::on()
        } else {
            SchedProv::off()
        }
    }

    /// Whether candidate/chain capture is live.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.capture.is_some()
    }

    /// The capture state, empty when off.
    fn captured(&self) -> &Capture {
        self.capture.as_deref().unwrap_or(&NO_CAPTURE)
    }

    /// Clears captured state so one collector can be reused across a
    /// batch of decisions (the hot loops would otherwise re-zero the
    /// inline arrays per decision). Keeps enablement; stale entries past
    /// the cleared lengths are invisible and overwritten by later
    /// captures.
    #[inline]
    pub fn reset(&mut self) {
        self.reason = None;
        if let Some(c) = &mut self.capture {
            c.considered = 0;
            c.candidates.len = 0;
            c.chain.len = 0;
            c.chain.dropped = 0;
        }
    }

    /// Notes the typed reason behind a refusal or hold. Always tracked.
    /// The last reason noted wins (a decision has one final verdict).
    #[inline]
    pub fn reject(&mut self, reason: ReasonCode) {
        self.reason = Some(reason);
    }

    /// The typed reason noted, if any.
    pub fn reason(&self) -> Option<ReasonCode> {
        self.reason
    }

    /// Notes one examined candidate. The target is built lazily so a
    /// capped-out (or off) collector does no work; targets land inline in
    /// a [`SmallStr`] without touching the heap.
    pub fn candidate_with<T: Into<SmallStr>>(
        &mut self,
        rule: &'static str,
        score: f64,
        target: impl FnOnce() -> T,
    ) {
        let Some(c) = &mut self.capture else {
            return;
        };
        c.considered += 1;
        if c.candidates.len() < Self::MAX_CANDIDATES {
            c.candidates.push(CandidateScore {
                target: target().into(),
                score,
                rule,
                chosen: false,
            });
        }
    }

    /// Candidate-capture slots still open (always 0 when the collector is
    /// off). The hottest scan loops keep this as a register-resident
    /// countdown so a capped-out (or disabled) collector costs one integer
    /// compare per examined device instead of a call into the collector.
    #[inline]
    pub fn scan_room(&self) -> usize {
        self.capture.as_ref().map_or(0, |c| {
            Self::MAX_CANDIDATES.saturating_sub(c.candidates.len())
        })
    }

    /// Captures one scanned candidate *without* bumping `considered` —
    /// callers pair it with [`SchedProv::add_considered`], flushing a
    /// local scan counter once per loop. Gate calls on
    /// [`SchedProv::scan_room`].
    #[inline]
    pub fn scan_push(&mut self, rule: &'static str, score: f64, target: &str) {
        if let Some(c) = &mut self.capture {
            c.candidates.push(CandidateScore {
                target: target.into(),
                score,
                rule,
                chosen: false,
            });
        }
    }

    /// Adds a bulk count of examined candidates (no-op when off).
    #[inline]
    pub fn add_considered(&mut self, n: usize) {
        if let Some(c) = &mut self.capture {
            c.considered += n;
        }
    }

    /// Marks the winning candidate. If capture capped it out (or the rule
    /// never noted it), a chosen entry is appended so the winner is always
    /// present in the record.
    #[inline]
    pub fn choose(&mut self, target: &str, rule: &'static str, score: f64) {
        let Some(c) = &mut self.capture else {
            return;
        };
        if let Some(cand) = c
            .candidates
            .visible_mut()
            .iter_mut()
            .find(|cand| cand.target == target)
        {
            cand.chosen = true;
            cand.rule = rule;
            cand.score = score;
            return;
        }
        c.candidates.push(CandidateScore {
            target: SmallStr::from(target),
            score,
            rule,
            chosen: true,
        });
    }

    /// Marks the candidate at capture slot `idx` as the winner — the
    /// hot-path variant of [`SchedProv::choose`] for scan loops that know
    /// the winner was the `idx`-th captured candidate, skipping the
    /// target-string search. Out-of-range slots are ignored.
    #[inline]
    pub fn choose_at(&mut self, idx: usize, rule: &'static str, score: f64) {
        let Some(c) = &mut self.capture else {
            return;
        };
        if let Some(cand) = c.candidates.visible_mut().get_mut(idx) {
            cand.chosen = true;
            cand.rule = rule;
            cand.score = score;
        }
    }

    /// Appends the winner directly — the hot-path variant of
    /// [`SchedProv::choose`] for scan loops that know the winner was
    /// *not* captured (the scan outran the capture window), skipping the
    /// target-string search.
    #[inline]
    pub fn choose_append(&mut self, target: &str, rule: &'static str, score: f64) {
        if let Some(c) = &mut self.capture {
            c.candidates.push(CandidateScore {
                target: SmallStr::from(target),
                score,
                rule,
                chosen: true,
            });
        }
    }

    /// Appends one comparator-chain step (lazily built).
    pub fn note(&mut self, step: impl FnOnce() -> String) {
        if let Some(c) = &mut self.capture {
            c.chain.push(std::borrow::Cow::Owned(step()));
        }
    }

    /// Appends one static comparator-chain step without allocating — the
    /// hot-path variant of [`SchedProv::note`] for fixed rule text.
    #[inline]
    pub fn note_static(&mut self, step: &'static str) {
        if let Some(c) = &mut self.capture {
            c.chain.push(std::borrow::Cow::Borrowed(step));
        }
    }

    /// Candidates captured so far (empty when off).
    pub fn candidates(&self) -> &[CandidateScore] {
        &self.captured().candidates
    }

    /// The comparator chain captured so far.
    pub fn chain(&self) -> &[std::borrow::Cow<'static, str>] {
        &self.captured().chain
    }

    /// Total candidates examined (0 when off).
    pub fn considered(&self) -> usize {
        self.captured().considered
    }

    /// Consumes the collector into a record (seq assigned at
    /// [`FlightRecorder::record`] time).
    pub fn into_record(
        self,
        at: SimTime,
        sp: u64,
        trace: u64,
        kind: DecisionKind,
        outcome: Outcome,
    ) -> DecisionRecord {
        let c = self.capture.map(|c| *c).unwrap_or_default();
        DecisionRecord {
            seq: 0,
            at,
            sp,
            trace,
            kind,
            outcome,
            candidates: c.candidates,
            considered: c.considered,
            chain: c.chain,
            fields: Vec::new(),
        }
    }
}

impl DecisionRecord {
    /// A blank slot record (ring pre-fill; every field is overwritten
    /// before the slot becomes visible).
    fn empty() -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            at: SimTime::ZERO,
            sp: 0,
            trace: 0,
            kind: DecisionKind::Schedule,
            outcome: Outcome::Placed {
                target: SmallStr::EMPTY,
            },
            candidates: CandidateList::new(),
            considered: 0,
            chain: ChainList::new(),
            fields: Vec::new(),
        }
    }
}

struct RecorderState {
    /// Circular buffer: grows to capacity, then `start` marks the oldest
    /// slot and new records overwrite in place — no element moves, no
    /// reallocation, so capture cost stays flat at any capacity.
    ring: Vec<DecisionRecord>,
    start: usize,
    next_seq: u64,
    evicted: u64,
}

impl RecorderState {
    /// Retained records, oldest first.
    fn iter(&self) -> impl Iterator<Item = &DecisionRecord> {
        let (wrapped, oldest_first) = self.ring.split_at(self.start);
        oldest_first.iter().chain(wrapped.iter())
    }

    /// Fills the next ring slot from a scratch collector. Only the
    /// *visible* candidates and chain steps are cloned into the slot —
    /// no intermediate `DecisionRecord` is built or moved.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        &mut self,
        capacity: usize,
        at: SimTime,
        sp: u64,
        trace: u64,
        kind: DecisionKind,
        outcome: Outcome,
        prov: &SchedProv,
    ) -> u64 {
        let (slot, seq) = self.slot(capacity);
        slot.seq = seq;
        slot.at = at;
        slot.sp = sp;
        slot.trace = trace;
        slot.kind = kind;
        slot.outcome = outcome;
        let c = prov.captured();
        slot.considered = c.considered;
        slot.candidates.copy_from(&c.candidates);
        slot.chain.copy_from(&c.chain);
        slot.fields.clear();
        seq
    }

    /// The slot the next record lands in, plus its assigned seq. Grows
    /// the ring until `capacity`, then recycles the oldest slot.
    fn slot(&mut self, capacity: usize) -> (&mut DecisionRecord, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() < capacity {
            self.ring.push(DecisionRecord::empty());
            let i = self.ring.len() - 1;
            (&mut self.ring[i], seq)
        } else {
            let i = self.start;
            self.start = (self.start + 1) % self.ring.len();
            self.evicted += 1;
            (&mut self.ring[i], seq)
        }
    }
}

/// A batch recording session from [`FlightRecorder::session`]: holds the
/// recorder lock so each [`RecorderSession::record_scratch`] is a plain
/// ring-slot fill with no lock round-trip. Disabled-recorder sessions
/// are inert.
pub struct RecorderSession<'a> {
    inner: Option<(parking_lot::MutexGuard<'a, RecorderState>, usize)>,
}

impl RecorderSession<'_> {
    /// Captures a record from a scratch collector into the ring, exactly
    /// like [`FlightRecorder::record_scratch`], under the session lock.
    #[allow(clippy::too_many_arguments)]
    pub fn record_scratch(
        &mut self,
        at: SimTime,
        sp: u64,
        trace: u64,
        kind: DecisionKind,
        outcome: Outcome,
        prov: &mut SchedProv,
    ) -> u64 {
        let Some((state, capacity)) = &mut self.inner else {
            prov.reset();
            return 0;
        };
        let seq = state.capture(*capacity, at, sp, trace, kind, outcome, prov);
        prov.reset();
        seq
    }
}

struct RecorderInner {
    capacity: usize,
    state: Mutex<RecorderState>,
}

/// Bounded, lock-cheap flight recorder of [`DecisionRecord`]s.
///
/// Cloneable handle; a disabled handle (the default) records nothing at
/// the cost of one `Option` branch per call. Enabled, the ring holds the
/// most recent `capacity` records — the oldest are evicted and counted,
/// like an aircraft flight recorder, so memory never exceeds
/// `capacity × record size` no matter how long the run.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl FlightRecorder {
    /// Default ring capacity. Sized so the ring's resident set
    /// (`capacity × sizeof(DecisionRecord)`, ~1.7 MiB) stays cache-friendly:
    /// a much larger ring cycles through memory faster than the cache can
    /// hold it and the eviction traffic slows the scheduler it is observing.
    /// Use [`FlightRecorder::with_capacity`] for deeper history.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// The no-op handle.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// A live recorder with the default capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A live recorder holding at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            inner: Some(Arc::new(RecorderInner {
                capacity,
                state: Mutex::new(RecorderState {
                    ring: Vec::with_capacity(capacity.min(1024)),
                    start: 0,
                    next_seq: 1,
                    evicted: 0,
                }),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends a record, assigning its sequence number. Returns the seq
    /// (0 on disabled handles). Evicts the oldest record when full.
    pub fn record(&self, mut record: DecisionRecord) -> u64 {
        let Some(i) = &self.inner else {
            return 0;
        };
        let mut s = i.state.lock();
        let (slot, seq) = s.slot(i.capacity);
        record.seq = seq;
        *slot = record;
        seq
    }

    /// Captures a record directly into the ring slot from a scratch
    /// collector — the hot-path variant of [`FlightRecorder::record`].
    /// Only the *visible* candidates and chain steps are cloned into the
    /// slot (no intermediate `DecisionRecord` is built or moved), and the
    /// collector is [`SchedProv::reset`] for reuse on the next decision.
    /// On a disabled handle the collector is still reset.
    pub fn record_scratch(
        &self,
        at: SimTime,
        sp: u64,
        trace: u64,
        kind: DecisionKind,
        outcome: Outcome,
        prov: &mut SchedProv,
    ) -> u64 {
        let Some(i) = &self.inner else {
            prov.reset();
            return 0;
        };
        let seq = i
            .state
            .lock()
            .capture(i.capacity, at, sp, trace, kind, outcome, prov);
        prov.reset();
        seq
    }

    /// Opens a batch recording session holding the recorder lock until
    /// dropped, so hot drains pay one lock round-trip per batch instead
    /// of one per record. Queries (`records`, `explain`, ...) block for
    /// the session's lifetime — hold it only across tight loops.
    pub fn session(&self) -> RecorderSession<'_> {
        RecorderSession {
            inner: self.inner.as_ref().map(|i| (i.state.lock(), i.capacity)),
        }
    }

    /// The configured ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map(|i| i.capacity).unwrap_or(0)
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().ring.len())
            .unwrap_or(0)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted after the ring filled.
    pub fn evicted(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().evicted)
            .unwrap_or(0)
    }

    /// Total records ever appended (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().next_seq - 1)
            .unwrap_or(0)
    }

    /// All retained records, oldest first (cloned out).
    pub fn records(&self) -> Vec<DecisionRecord> {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Retained records about one sharePod, in decision order.
    pub fn for_sharepod(&self, sp: u64) -> Vec<DecisionRecord> {
        self.inner
            .as_ref()
            .map(|i| {
                i.state
                    .lock()
                    .iter()
                    .filter(|r| r.sp == sp)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Retained records joined to one trace id, in decision order.
    pub fn for_trace(&self, trace: u64) -> Vec<DecisionRecord> {
        self.inner
            .as_ref()
            .map(|i| {
                i.state
                    .lock()
                    .iter()
                    .filter(|r| r.trace != 0 && r.trace == trace)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The explain query: the full decision chain for a sharePod, or
    /// `None` when the recorder holds no record of it (never recorded, or
    /// evicted by the ring bound). Records keyed to other subjects but
    /// joined to the same causal trace (e.g. the kube-scheduler's
    /// node-rank records, keyed by backing-pod rather than sharePod) are
    /// merged into the chain in decision order.
    pub fn explain(&self, sp: u64) -> Option<Explanation> {
        let mut records = self.for_sharepod(sp);
        if records.is_empty() {
            return None;
        }
        let trace = records
            .iter()
            .map(|r| r.trace)
            .find(|&t| t != 0)
            .unwrap_or(0);
        if trace != 0 {
            records.extend(self.for_trace(trace).into_iter().filter(|r| r.sp != sp));
            records.sort_by_key(|r| r.seq);
        }
        Some(Explanation { sp, trace, records })
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .finish()
    }
}

/// The answer to "why did this sharePod end up where it did": every
/// retained record about it, in decision order, plus the trace join key.
#[derive(Debug, Clone, Serialize)]
pub struct Explanation {
    /// The sharePod.
    pub sp: u64,
    /// Its causal trace id (0 = untraced).
    pub trace: u64,
    /// The decision chain, oldest first.
    pub records: Vec<DecisionRecord>,
}

impl Explanation {
    /// The final outcome of the chain.
    pub fn final_outcome(&self) -> &Outcome {
        &self
            .records
            .last()
            .expect("explanations are non-empty")
            .outcome
    }

    /// JSON rendering (pretty).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serializable")
    }

    /// Human-readable rendering, one decision per paragraph.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sharePod {} (trace {}): {} decision record(s)\n",
            self.sp,
            self.trace,
            self.records.len()
        ));
        for r in &self.records {
            let verdict = match &r.outcome {
                Outcome::Placed { target } => format!("placed on {target}"),
                Outcome::NewDevice { target } => format!("new device {target}"),
                Outcome::Reconfigure { target } => format!("reconfigure {target}"),
                Outcome::Rejected { reason } => format!("rejected: {}", reason.label()),
                Outcome::Held { reason } => format!("held: {}", reason.label()),
                Outcome::Evicted { target } => format!("evicted from {target}"),
                Outcome::Action { name, target } => format!("action {name} on {target}"),
            };
            out.push_str(&format!(
                "[{:>12.6}s] #{} {} → {}\n",
                r.at.as_secs_f64(),
                r.seq,
                r.kind.label(),
                verdict
            ));
            if r.considered > 0 {
                out.push_str(&format!(
                    "  candidates ({} examined, {} captured):\n",
                    r.considered,
                    r.candidates.len()
                ));
                for c in &r.candidates {
                    out.push_str(&format!(
                        "    {} {} score={:.6} [{}]\n",
                        if c.chosen { "*" } else { " " },
                        c.target,
                        c.score,
                        c.rule
                    ));
                }
            }
            for step in &r.chain {
                out.push_str(&format!("  | {step}\n"));
            }
            if r.chain.dropped() > 0 {
                out.push_str(&format!("  | … (+{} more steps)\n", r.chain.dropped()));
            }
            for (k, v) in &r.fields {
                out.push_str(&format!("  {k}={v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sp: u64, trace: u64) -> DecisionRecord {
        SchedProv::on().into_record(
            SimTime::from_millis(5),
            sp,
            trace,
            DecisionKind::Schedule,
            Outcome::Placed {
                target: "vgpu-1".into(),
            },
        )
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        assert_eq!(r.record(rec(1, 0)), 0);
        assert!(!r.is_enabled());
        assert!(r.records().is_empty());
        assert!(r.explain(1).is_none());
        assert_eq!(r.capacity(), 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(rec(i, 0));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.evicted(), 6);
        assert_eq!(r.recorded(), 10);
        // The retained window is the most recent records, in seq order.
        let seqs: Vec<u64> = r.records().iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
    }

    #[test]
    fn explain_joins_sharepod_and_trace() {
        let r = FlightRecorder::enabled();
        r.record(rec(7, 42));
        r.record(rec(8, 43));
        r.record({
            let mut x = rec(7, 42);
            x.outcome = Outcome::Rejected {
                reason: ReasonCode::NoCapacity,
            };
            x
        });
        let ex = r.explain(7).expect("recorded");
        assert_eq!(ex.trace, 42);
        assert_eq!(ex.records.len(), 2);
        assert_eq!(ex.final_outcome().class(), "rejected");
        assert_eq!(r.for_trace(43).len(), 1);
        let json: serde_json::Value = serde_json::from_str(&ex.to_json()).unwrap();
        assert_eq!(json["sp"], 7u64);
        assert_eq!(json["records"][1]["outcome"]["class"], "rejected");
        assert_eq!(json["records"][1]["outcome"]["reason"], "no_capacity");
        assert!(ex.render_text().contains("rejected: no_capacity"));
    }

    #[test]
    fn prov_off_tracks_reason_but_not_candidates() {
        let mut p = SchedProv::off();
        p.candidate_with("best_fit", 0.5, || SmallStr::from("vgpu-1"));
        p.note(|| "never built".into());
        p.reject(ReasonCode::AffinityExcluded);
        assert!(!p.is_on());
        assert_eq!(p.considered(), 0);
        assert!(p.candidates().is_empty());
        assert_eq!(p.reason(), Some(ReasonCode::AffinityExcluded));
    }

    #[test]
    fn prov_candidate_cap_keeps_winner() {
        let mut p = SchedProv::on();
        for i in 0..20 {
            p.candidate_with("best_fit", i as f64, || format!("vgpu-{i}"));
        }
        assert_eq!(p.considered(), 20);
        assert_eq!(p.candidates().len(), SchedProv::MAX_CANDIDATES);
        // The winner fell past the cap: choose() re-adds it, chosen.
        p.choose("vgpu-19", "best_fit", 19.0);
        assert_eq!(p.candidates().len(), SchedProv::MAX_CANDIDATES + 1);
        assert!(p
            .candidates()
            .iter()
            .any(|c| c.target == "vgpu-19" && c.chosen));
        // Choosing a captured candidate marks it in place.
        let mut q = SchedProv::on();
        q.candidate_with("best_fit", 1.0, || SmallStr::from("a"));
        q.candidate_with("best_fit", 2.0, || SmallStr::from("b"));
        q.choose("a", "best_fit", 1.0);
        assert_eq!(q.candidates().len(), 2);
        assert!(q.candidates()[0].chosen);
    }

    #[test]
    fn reason_labels_round_trip() {
        for r in ReasonCode::ALL {
            assert_eq!(ReasonCode::from_label(r.label()), Some(r));
            // serde rendering equals the metric label.
            let json = serde_json::to_string(&r).unwrap();
            assert_eq!(json, format!("\"{}\"", r.label()));
        }
    }

    #[test]
    fn per_sharepod_order_is_seq_order() {
        let r = FlightRecorder::enabled();
        for _ in 0..5 {
            r.record(rec(3, 9));
            r.record(rec(4, 10));
        }
        let seqs: Vec<u64> = r.for_sharepod(3).iter().map(|x| x.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(seqs.len(), 5);
    }
}
