//! Every fault schedule of a small replicated fleet, run against the real
//! publication and read code.
//!
//! The fleet is 2 ranges × 2 replicas of real `TopicServer` shards behind
//! the real `ShardRouter`, fed by the real `TrainingPipeline::push_epoch`.
//! Each replica is a `LocalTransport` wrapped in a `ScriptedReplica`, whose
//! publication calls (`observe_epoch`, `stage` of a slice or of a delta,
//! `commit_publish`) consult a shared script. A call is answered as the
//! shard answers it, or it meets a fault:
//!
//! * `Unreachable`: a transport error, and the shard never sees the call;
//! * `ReplyLost`: the shard acts on the call, then a transport error;
//! * `Duplicated` (commits only): the shard acts and answers, and a copy of
//!   the commit reaches it again just before its next commit. That is the
//!   stale duplicate `TopicServer::commit` promises to survive; without it
//!   no schedule ever commits an epoch a replica already serves.
//!
//! Declines, conflicts and refusals are never injected: they are whatever
//! the shard answers, so no schedule reaches a state the system cannot.
//!
//! The check enumerates every schedule of at most two faults over three
//! publications, each after a training tick, and follows each schedule with
//! one fault-free recovery publication. After every publication it asserts:
//!
//! 1. *one epoch, ahead*: after a success every replica serves the returned
//!    epoch, higher than any epoch any replica held before;
//! 2. *the trainer's bits*: after a success every replica's slice is
//!    bit-identical to a fresh export of the trainer's model, so the rows
//!    shipped since the last success covered every row touched since;
//! 3. *one slice per epoch*: no epoch is ever served with two different
//!    slices for one range;
//! 4. *no stage behind*: no stage was accepted for an epoch its replica
//!    already served;
//! 5. *honest stats*: `epochs_published` counts the successes, and a
//!    failed publication moves no `PipelineStats` field;
//! 6. *no fault, no failure*: a publication whose own calls met no fault
//!    succeeds (the recovery publication among them);
//! 7. *pinned reads*: one ESCA and one EM document, each read at the
//!    publishing router's `epoch()`, are answered bit-identically to a fleet
//!    cold-booted from that epoch's slices, or refused with
//!    `ShardVersionSkew` — only after two faults, and only when some range
//!    has no replica holding that epoch.
//!
//! A violation panics with the schedule as a replayable literal.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use saber_pipeline::{PipelineConfig, PipelineError, TrainingPipeline};
use saberlda::corpus::synthetic::SyntheticSpec;
use saberlda::serve::{
    FoldInKind, FoldInParams, InferenceSnapshot, LocalTransport, PartialRequest, PendingPartial,
    Publication, ServeConfig, ServeError, ShardInfo, ShardPlan, ShardRouter, ShardTransport,
    TopicServer,
};
use saberlda::trace::TraceContext;
use saberlda::{SaberLda, SaberLdaConfig};

use Fault::{Duplicated, ReplyLost, Unreachable};

const RANGES: usize = 2;
const REPLICAS: usize = 2;
/// Scripted publications per schedule, before the fault-free recovery.
const PUBLICATIONS: usize = 3;
/// Injected faults per schedule, at most.
const MAX_FAULTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Unreachable,
    ReplyLost,
    Duplicated,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Observe,
    Stage,
    StageDelta,
    Commit,
}

/// One scripted call: what it was, and which replica of which range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Call {
    op: Op,
    range: usize,
    replica: usize,
}

impl Call {
    /// The faults a schedule may inject at this call.
    fn faults(self) -> &'static [Fault] {
        match self.op {
            Op::Commit => &[Unreachable, ReplyLost, Duplicated],
            _ => &[Unreachable, ReplyLost],
        }
    }
}

/// What every replica of one fleet shares.
#[derive(Debug, Default)]
struct Script {
    /// `(call index, fault)`: the schedule under test.
    faults: Vec<(usize, Fault)>,
    /// Every scripted call so far, in order; schedule indices count here.
    calls: Vec<Call>,
    /// Set for the recovery publication and the reads: nothing is injected
    /// or counted.
    unscripted: bool,
    /// Faults injected since the current publication started.
    injected: usize,
    /// Invariant 4's violations, as the replicas saw them.
    violations: Vec<String>,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap()
}

/// A real `LocalTransport` whose publication calls follow the script.
#[derive(Debug)]
struct ScriptedReplica {
    inner: Arc<LocalTransport>,
    range: usize,
    replica: usize,
    script: Arc<Mutex<Script>>,
    /// The copy of a `Duplicated` commit, delivered before the next commit.
    late_commit: Mutex<Option<u64>>,
}

impl ScriptedReplica {
    /// Records this call and returns the fault the schedule injects here.
    fn next(&self, op: Op) -> Option<Fault> {
        let mut script = lock(&self.script);
        if script.unscripted {
            return None;
        }
        let index = script.calls.len();
        script.calls.push(Call {
            op,
            range: self.range,
            replica: self.replica,
        });
        let fault = script.faults.iter().find(|(i, _)| *i == index).map(|f| f.1);
        script.injected += usize::from(fault.is_some());
        fault
    }

    /// The call as `fault` leaves it: `shard` is what the shard does.
    fn apply<R>(
        &self,
        fault: Option<Fault>,
        shard: impl FnOnce() -> Result<R, ServeError>,
    ) -> Result<R, ServeError> {
        match fault {
            Some(Unreachable) => Err(ServeError::transport("scripted: unreachable")),
            Some(ReplyLost) => {
                let _ = shard();
                Err(ServeError::transport("scripted: reply lost"))
            }
            Some(Duplicated) | None => shard(),
        }
    }
}

impl ShardTransport for ScriptedReplica {
    type Pending = <LocalTransport as ShardTransport>::Pending;

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        self.inner
            .submit_partial_pinned(words, request, epoch, deadline, trace)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        self.inner.shard_info()
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        self.apply(self.next(Op::Observe), || self.inner.observe_epoch())
    }

    /// Stages on the shard, noting a stage accepted for an epoch the shard
    /// already served (invariant 4).
    fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
        let op = match publication {
            Publication::Slice(_) => Op::Stage,
            Publication::Delta(_) => Op::StageDelta,
        };
        self.apply(self.next(op), || {
            let served = self.inner.server().snapshot_version();
            let outcome = self.inner.stage(epoch, publication);
            if matches!(outcome, Ok(true)) && epoch <= served {
                lock(&self.script).violations.push(format!(
                    "replica {} of range {} accepted a stage for epoch {epoch} while serving {served}",
                    self.replica, self.range
                ));
            }
            outcome
        })
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        if let Some(copy) = lock(&self.late_commit).take() {
            let _ = self.inner.commit_publish(copy);
        }
        let fault = self.next(Op::Commit);
        if fault == Some(Duplicated) {
            *lock(&self.late_commit) = Some(epoch);
        }
        self.apply(fault, || self.inner.commit_publish(epoch))
    }
}

/// A replica as the EM reader sees it. A router validates its fold-in kind
/// against every shard's and moves its pin only with its own publications,
/// so the EM reader is a second router over the same shards, built for each
/// read at the publishing router's epoch.
#[derive(Debug)]
struct EmView {
    inner: Arc<LocalTransport>,
    pin: u64,
}

impl ShardTransport for EmView {
    type Pending = <LocalTransport as ShardTransport>::Pending;

    fn submit_partial_pinned(
        &self,
        words: Vec<u32>,
        request: PartialRequest,
        epoch: Option<u64>,
        deadline: Option<Instant>,
        trace: TraceContext,
    ) -> Result<Self::Pending, ServeError> {
        self.inner
            .submit_partial_pinned(words, request, epoch, deadline, trace)
    }

    fn shard_info(&self) -> Result<ShardInfo, ServeError> {
        let mut info = self.inner.shard_info()?;
        info.fold_in.kind = FoldInKind::Em;
        info.epoch = self.pin;
        Ok(info)
    }

    fn observe_epoch(&self) -> Result<u64, ServeError> {
        self.inner.observe_epoch()
    }

    fn stage(&self, epoch: u64, publication: Publication<'_>) -> Result<bool, ServeError> {
        self.inner.stage(epoch, publication)
    }

    fn commit_publish(&self, epoch: u64) -> Result<u64, ServeError> {
        self.inner.commit_publish(epoch)
    }
}

fn spec() -> SyntheticSpec {
    SyntheticSpec {
        n_docs: 16,
        vocab_size: 40,
        mean_doc_len: 10.0,
        n_topics: 3,
        ..SyntheticSpec::default()
    }
}

/// One worker per shard, and few sweeps: an EM read is one fan-out per
/// sweep.
fn serve_config() -> ServeConfig {
    ServeConfig {
        n_workers: 1,
        fold_in: FoldInParams {
            burn_in: 1,
            samples: 1,
            kind: FoldInKind::Esca,
        },
        ..ServeConfig::default()
    }
}

fn reader_config(kind: FoldInKind) -> ServeConfig {
    let mut config = serve_config();
    config.fold_in.kind = kind;
    config
}

/// The document invariant 7 reads: words on both ranges.
const READ: [u32; 7] = [2, 7, 7, 13, 21, 28, 35];

/// The one-document batch ingested before publication `step`: small
/// enough that each range's delta beats its full slice.
fn batch(step: usize) -> Vec<Vec<u32>> {
    let spec = SyntheticSpec {
        n_docs: 1,
        mean_doc_len: 6.0,
        ..spec()
    };
    let corpus = spec.generate(100 + step as u64);
    corpus
        .documents()
        .iter()
        .map(|d| d.words().to_vec())
        .collect()
}

/// A scripted fleet serving a warm trainer's model, and the pipeline that
/// publishes to it.
struct Fleet {
    pipeline: TrainingPipeline<ScriptedReplica>,
    router: Arc<ShardRouter<ScriptedReplica>>,
    script: Arc<Mutex<Script>>,
    plan: ShardPlan,
    ranges: Vec<Range<u32>>,
}

impl Fleet {
    fn new(schedule: &[(usize, Fault)]) -> Fleet {
        let config = SaberLdaConfig::builder()
            .n_topics(4)
            .n_iterations(2)
            .n_chunks(2)
            .seed(7)
            .build()
            .unwrap();
        let mut trainer = SaberLda::new(config, &spec().generate(5)).unwrap();
        trainer.train();
        let cfg = serve_config();
        let boot = InferenceSnapshot::from_model(trainer.model(), cfg.sampler);
        let plan = ShardPlan::uniform(trainer.model().vocab_size(), RANGES).unwrap();
        let ranges: Vec<_> = plan.ranges().collect();
        let script = Arc::new(Mutex::new(Script {
            faults: schedule.to_vec(),
            ..Script::default()
        }));
        let sets = ranges
            .iter()
            .enumerate()
            .map(|(range, span)| {
                (0..REPLICAS)
                    .map(|replica| ScriptedReplica {
                        inner: Arc::new(LocalTransport::with_range(
                            TopicServer::start(boot.shard(span.clone()), cfg).unwrap(),
                            span.clone(),
                        )),
                        range,
                        replica,
                        script: Arc::clone(&script),
                        late_commit: Mutex::new(None),
                    })
                    .collect()
            })
            .collect();
        let router = Arc::new(ShardRouter::with_replica_sets(plan.clone(), sets, cfg).unwrap());
        let pipeline = TrainingPipeline::new(
            trainer,
            Arc::clone(&router),
            PipelineConfig {
                batch_docs: 1,
                iterations_per_batch: 1,
                publish_every: 1,
                full_refresh_every: 0,
            },
        )
        .unwrap();
        Fleet {
            pipeline,
            router,
            script,
            plan,
            ranges,
        }
    }

    /// Reads [`READ`] with `seed` at the publishing router's epoch, through
    /// that router (ESCA) or an EM router over the same replicas. Returns
    /// the epoch read and the answer.
    fn read(&self, kind: FoldInKind, seed: u64) -> (u64, Result<Vec<u32>, ServeError>) {
        let pin = self.router.epoch();
        let answer = match kind {
            FoldInKind::Esca => self
                .router
                .infer_with_deadline(READ.to_vec(), seed, Duration::MAX),
            FoldInKind::Em => {
                let sets = self.router.replica_sets().iter().map(|set| {
                    let view = |r: &ScriptedReplica| EmView {
                        inner: Arc::clone(&r.inner),
                        pin,
                    };
                    set.replicas().iter().map(view).collect()
                });
                let config = reader_config(kind);
                let reader =
                    ShardRouter::with_replica_sets(self.plan.clone(), sets.collect(), config);
                reader
                    .unwrap()
                    .infer_with_deadline(READ.to_vec(), seed, Duration::MAX)
            }
        };
        let answer = answer.and_then(|a| match a.snapshot_version {
            v if v == pin => Ok(bits(&a.theta)),
            v => Err(ServeError::Internal {
                detail: format!("answered from epoch {v}"),
            }),
        });
        (pin, answer)
    }

    /// Whether some replica of `range` can answer a read pinned to `epoch`.
    fn held(&self, range: usize, epoch: u64) -> bool {
        let set = &self.router.replica_sets()[range];
        set.replicas().iter().any(|r| {
            let request = PartialRequest::FoldIn { seed: 0 };
            let off = TraceContext::disabled();
            r.inner
                .submit_partial_pinned(vec![0], request, Some(epoch), None, off)
                .and_then(|pending| pending.wait(None))
                .is_ok()
        })
    }

    /// `(range, epoch served, slice bytes)` for every replica.
    fn served(&self) -> Vec<(usize, u64, Vec<u8>)> {
        let replicas = self.router.replica_sets().iter().flat_map(|s| s.replicas());
        replicas
            .map(|r| {
                let server = r.inner.server();
                let snapshot = server.snapshot();
                (r.range, server.snapshot_version(), bytes(&snapshot))
            })
            .collect()
    }

    /// Range `range` of a fresh export of the trainer's model.
    fn trainer_slice(&self, range: usize) -> Vec<u8> {
        let model = self.pipeline.trainer().model();
        let snapshot = InferenceSnapshot::from_model(model, self.router.config().sampler);
        bytes(&snapshot.shard(self.ranges[range].clone()))
    }
}

fn bytes(snapshot: &InferenceSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    snapshot.save(&mut out).unwrap();
    out
}

fn bits(theta: &[f32]) -> Vec<u32> {
    theta.iter().map(|x| x.to_bits()).collect()
}

/// θ bits of [`READ`] with `seed` from a `kind` fleet cold-booted from
/// `slices`, one per range. Memoised: schedules share few models.
fn cold_boot(plan: &ShardPlan, kind: FoldInKind, seed: u64, slices: &[&Vec<u8>]) -> Vec<u32> {
    type Key = (bool, u64, Vec<Vec<u8>>);
    static ANSWERS: Mutex<BTreeMap<Key, Vec<u32>>> = Mutex::new(BTreeMap::new());
    let key = (
        kind == FoldInKind::Em,
        seed,
        slices.iter().map(|s| s.to_vec()).collect(),
    );
    if let Some(answer) = lock(&ANSWERS).get(&key) {
        return answer.clone();
    }
    let config = reader_config(kind);
    let shards = plan.ranges().zip(slices).map(|(range, slice)| {
        let snapshot = InferenceSnapshot::load(&slice[..]).unwrap();
        LocalTransport::with_range(TopicServer::start(snapshot, config).unwrap(), range)
    });
    let cold = ShardRouter::with_transports(plan.clone(), shards.collect(), config).unwrap();
    let answer = bits(
        &cold
            .infer_with_deadline(READ.to_vec(), seed, Duration::MAX)
            .unwrap()
            .theta,
    );
    lock(&ANSWERS).insert(key, answer.clone());
    answer
}

/// Runs `schedule` and the recovery publication after it, asserting every
/// invariant of the module docs after every publication. Returns the calls
/// the scripted publications made, which the enumeration extends.
fn check(schedule: &[(usize, Fault)]) -> Vec<Call> {
    let fail = |why: String| -> ! {
        panic!("{why}\n  replay: check(&{schedule:?});");
    };
    let mut fleet = Fleet::new(schedule);
    let mut served = fleet.served();
    let mut slices: BTreeMap<(usize, u64), Vec<u8>> = served
        .iter()
        .map(|(range, epoch, slice)| ((*range, *epoch), slice.clone()))
        .collect();
    let mut successes = 0;
    for step in 0..=PUBLICATIONS {
        let highest = served.iter().map(|s| s.1).max().unwrap_or(0);
        let stats_before = fleet.router.router_stats().pipeline;
        lock(&fleet.script).injected = 0;
        let outcome = if step == PUBLICATIONS {
            lock(&fleet.script).unscripted = true;
            fleet.pipeline.push_epoch()
        } else {
            let tick = fleet.pipeline.tick(batch(step));
            tick.map(|report| report.published.expect("every tick publishes"))
        };
        let (injected, violations) = {
            let script = lock(&fleet.script);
            (script.injected, script.violations.clone())
        };
        if let Some(violation) = violations.first() {
            fail(format!(
                "4 (no stage behind), publication {step}: {violation}"
            ));
        }
        served = fleet.served();
        for (range, epoch, slice) in &served {
            let first = slices
                .entry((*range, *epoch))
                .or_insert_with(|| slice.clone());
            if first != slice {
                fail(format!(
                    "3 (one slice per epoch), publication {step}: range {range} serves two \
                     different slices as epoch {epoch}"
                ));
            }
        }
        let stats = fleet.router.router_stats().pipeline;
        match outcome {
            Ok(report) => {
                successes += 1;
                for (range, epoch, slice) in &served {
                    if *epoch != report.epoch || *epoch <= highest {
                        fail(format!(
                            "1 (one epoch, ahead), publication {step}: range {range} serves epoch \
                             {epoch}, published {}, highest before {highest}",
                            report.epoch
                        ));
                    }
                    if *slice != fleet.trainer_slice(*range) {
                        fail(format!(
                            "2 (the trainer's bits), publication {step}: range {range} differs \
                             from the trainer's model at epoch {epoch}"
                        ));
                    }
                }
                let published = stats.as_ref().map_or(0, |s| s.epochs_published);
                if published != successes {
                    fail(format!(
                        "5 (honest stats), publication {step}: epochs_published {published} \
                         after {successes} successes"
                    ));
                }
            }
            Err(e) => {
                if stats != stats_before {
                    fail(format!(
                        "5 (honest stats), publication {step}: a failed publication moved \
                         PipelineStats from {stats_before:?} to {stats:?}"
                    ));
                }
                if injected == 0 {
                    fail(format!(
                        "6 (no fault, no failure), publication {step} failed: {e}"
                    ));
                }
            }
        }
        let faults = {
            let mut script = lock(&fleet.script);
            script.unscripted = true;
            let calls = script.calls.len();
            schedule.iter().filter(|(i, _)| *i < calls).count()
        };
        for kind in [FoldInKind::Esca, FoldInKind::Em] {
            let (pin, answer) = fleet.read(kind, step as u64);
            let why = match answer {
                Ok(theta) => {
                    let slices: Option<Vec<_>> =
                        (0..RANGES).map(|r| slices.get(&(r, pin))).collect();
                    match slices {
                        Some(s) if cold_boot(&fleet.plan, kind, step as u64, &s) == theta => {
                            continue
                        }
                        Some(_) => "differs from a cold boot of that epoch".to_string(),
                        None => "was answered, but some range never served it".to_string(),
                    }
                }
                Err(ServeError::ShardVersionSkew)
                    if faults >= 2 && (0..RANGES).any(|r| !fleet.held(r, pin)) =>
                {
                    continue
                }
                Err(e) => format!("failed after {faults} faults: {e}"),
            };
            fail(format!(
                "7 (pinned reads), publication {step}: the {kind:?} read at epoch {pin} {why}"
            ));
        }
        lock(&fleet.script).unscripted = false;
    }
    let calls = lock(&fleet.script).calls.clone();
    calls
}

/// Every schedule of at most [`MAX_FAULTS`] faults over the scripted
/// publications' calls, enumerated depth-first: a schedule's run lists the
/// calls it made, and each later call, under each fault it admits, extends
/// it by one fault.
#[test]
fn every_schedule_of_up_to_two_faults_keeps_the_publication_invariants() {
    let started = Instant::now();
    let mut pending = vec![Vec::new()];
    let mut count = 0usize;
    while let Some(schedule) = pending.pop() {
        let calls = check(&schedule);
        count += 1;
        if schedule.len() == MAX_FAULTS {
            continue;
        }
        let first = schedule.last().map_or(0, |&(i, _)| i + 1);
        for (i, call) in calls.iter().enumerate().skip(first) {
            for &fault in call.faults() {
                let mut next = schedule.clone();
                next.push((i, fault));
                pending.push(next);
            }
        }
    }
    println!(
        "publication_schedules: {count} schedules of at most {MAX_FAULTS} faults, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    assert!(count > 1_000, "the enumeration shrank to {count} schedules");
}

#[test]
fn failed_publication_retries_with_every_row_since_the_last_success() {
    // Regression (REVIEW): a publication that dies during staging must not
    // lose the drained touched rows. If they vanish, a retry with no
    // training in between drains an *empty* set, and the fleet accepts the
    // empty delta (the base epoch still matches) — silently serving bits
    // diverging from the trainer, forever with full_refresh_every = 0.
    // The schedule: the last range's first stage is unreachable — the
    // nastier abort, with the first range already staged but uncommitted.
    let schedule = [(3, Unreachable)];
    check(&schedule);
    let mut fleet = Fleet::new(&schedule);

    // Tick 1 ingests batch A; its publication hits the injected fault.
    let err = fleet.pipeline.tick(batch(0)).unwrap_err();
    let last_range_first_stage = Call {
        op: Op::StageDelta,
        range: RANGES - 1,
        replica: 0,
    };
    assert_eq!(lock(&fleet.script).calls[3], last_range_first_stage);
    assert!(matches!(err, PipelineError::Serve(_)), "{err}");
    assert_eq!(
        fleet.pipeline.served_epoch(),
        1,
        "failed publication moved the base"
    );
    assert_eq!(
        fleet.router.epoch(),
        1,
        "failed publication committed anyway"
    );

    // The immediate retry a daemon would issue — no training in between,
    // so the only source of rows is the rolled-back drain. It must ship
    // batch A's rows as a delta against the still-served epoch 1.
    let published = fleet.pipeline.push_epoch().expect("the retry publication");
    assert_eq!(published.epoch, 2);
    assert!(
        published.changed_rows > 0,
        "the retry drained nothing — the failed drain was lost"
    );
    let stats = fleet.router.router_stats().pipeline.unwrap();
    assert_eq!(stats.epochs_published, 1);
    assert_eq!(
        stats.delta_epochs, 1,
        "the retry must take the delta path for the lost-rows bug to bite"
    );
    assert_eq!(stats.rows_shipped, REPLICAS as u64 * published.changed_rows);

    // The crux: the delta-refreshed fleet answers bit-identically to a
    // cold boot of the trainer's current model. Had the drained rows been
    // lost, the empty delta would be accepted and diverge here.
    let assert_cold_boot_answers = |fleet: &Fleet, epoch: u64| {
        let model = fleet.pipeline.trainer().model();
        let plan = ShardPlan::uniform(model.vocab_size(), RANGES).unwrap();
        let cold = ShardRouter::from_model(model, plan, serve_config()).unwrap();
        let docs = spec().generate(89);
        for (seed, doc) in docs.documents().iter().enumerate() {
            let words = doc.words().to_vec();
            let a = fleet
                .router
                .infer_with_deadline(words.clone(), seed as u64, Duration::MAX)
                .unwrap();
            let b = cold
                .infer_with_deadline(words, seed as u64, Duration::MAX)
                .unwrap();
            assert_eq!(a.snapshot_version, epoch);
            let bits = |theta: &[f32]| theta.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.theta),
                bits(&b.theta),
                "retried delta publication diverged from the trainer's model"
            );
        }
        cold.shutdown();
    };
    assert_cold_boot_answers(&fleet, 2);

    // And the pipeline keeps flowing: the next tick publishes epoch 3,
    // still bit-identical to a cold boot of the final model.
    let report = fleet.pipeline.tick(batch(1)).unwrap();
    assert_eq!(report.published.expect("tick publishes").epoch, 3);
    assert_cold_boot_answers(&fleet, 3);
}
