//! Model-based property tests: the service against an in-memory oracle.
//! Runs on `clio_testkit::prop` (`CLIO_PROP_CASES` / `CLIO_PROP_SEED`).

use std::collections::BTreeMap;
use std::sync::Arc;

use clio_core::service::{AppendOpts, Durability, LogService};
use clio_core::ServiceConfig;
use clio_testkit::prop::{
    any_u32, any_u64, bools, check, just, option_of, pair, u16s, u8s, vec_of, weighted, Gen,
};
use clio_types::{ManualClock, SeqNo, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

/// One modelled operation.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Append {
        log: u8,
        len: u16,
        forced: bool,
        minimal: bool,
        seqno: Option<u32>,
    },
    Flush,
    Seal(u8),
}

fn arb_op() -> Gen<Op> {
    let append = {
        let log = u8s(0..6);
        let len = u16s(0..900);
        let flag = bools();
        let seqno = option_of(&any_u32());
        Gen::new(move |src| Op::Append {
            log: log.generate(src),
            len: len.generate(src),
            forced: flag.generate(src),
            minimal: flag.generate(src),
            seqno: seqno.generate(src),
        })
    };
    weighted(vec![
        (1, u8s(0..6).map(Op::Create)),
        (8, append),
        (1, just(Op::Flush)),
        (1, u8s(0..6).map(Op::Seal)),
    ])
}

/// The oracle: per-log entry payloads in order, plus sealed flags.
#[derive(Debug, Default)]
struct Model {
    logs: BTreeMap<u8, (bool, Vec<Vec<u8>>)>, // (sealed, entries)
}

#[test]
fn service_matches_in_memory_model() {
    let g = vec_of(&arb_op(), 1..120);
    check("service_matches_in_memory_model", 24, &g, |ops| {
        let svc = LogService::create(
            VolumeSeqId(1),
            Arc::new(MemDevicePool::new(256, 1 << 14)),
            ServiceConfig::small(),
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("create service");
        let mut model = Model::default();
        let mut counter = 0u32;
        for op in ops {
            match op {
                Op::Create(l) => {
                    let existed = model.logs.contains_key(l);
                    let r = svc.create_log(&format!("/log{l}"));
                    assert_eq!(r.is_err(), existed, "create mismatch for {l}");
                    if !existed {
                        model.logs.insert(*l, (false, Vec::new()));
                    }
                }
                Op::Append {
                    log,
                    len,
                    forced,
                    minimal,
                    seqno,
                } => {
                    counter += 1;
                    let mut payload = format!("{counter}:").into_bytes();
                    payload.resize((*len).max(4) as usize, b'q');
                    let opts = AppendOpts {
                        durability: if *forced {
                            Durability::Forced
                        } else {
                            Durability::Buffered
                        },
                        timestamped: !*minimal,
                        seqno: seqno.map(SeqNo),
                    };
                    let r = svc.append_path(&format!("/log{log}"), &payload, opts);
                    match model.logs.get_mut(log) {
                        Some((false, entries)) => {
                            assert!(r.is_ok(), "append failed: {:?}", r.err());
                            entries.push(payload);
                        }
                        Some((true, _)) => assert!(r.is_err(), "append to sealed log succeeded"),
                        None => assert!(r.is_err(), "append to missing log succeeded"),
                    }
                }
                Op::Flush => {
                    assert!(svc.flush().is_ok());
                }
                Op::Seal(l) => {
                    if let Some((sealed, _)) = model.logs.get_mut(l) {
                        if !*sealed {
                            let id = svc.resolve(&format!("/log{l}")).expect("exists in model");
                            assert!(svc.seal_log(id).is_ok());
                            *sealed = true;
                        }
                    }
                }
            }
        }
        // Every log reads back exactly its model contents, in order,
        // forward and backward.
        for (l, (_, entries)) in &model.logs {
            let mut cur = svc.cursor(&format!("/log{l}")).expect("cursor");
            let got = cur.collect_remaining().expect("scan");
            assert_eq!(got.len(), entries.len(), "log {l} count");
            for (want, have) in entries.iter().zip(&got) {
                assert_eq!(want, &have.data);
            }
            let mut cur = svc.cursor_from_end(&format!("/log{l}")).expect("cursor");
            let mut back = Vec::new();
            while let Some(e) = cur.prev().expect("prev") {
                back.push(e.data);
            }
            back.reverse();
            assert_eq!(&back, entries, "log {l} backward scan");
        }
    });
}

#[test]
fn crash_never_loses_forced_prefix() {
    let g = pair(&vec_of(&pair(&u16s(1..600), &bools()), 1..60), &any_u64());
    check("crash_never_loses_forced_prefix", 24, &g, |(lens, seed)| {
        // Deterministic single-log run with a crash at the end; the
        // survivors must be a prefix covering every forced append.
        use clio_volume::RecordingPool;
        let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
            256,
            1 << 14,
        ))));
        let ck = Arc::new(ManualClock::starting_at(Timestamp::from_secs(
            seed % 1000 + 1,
        )));
        let cfg = ServiceConfig::small();
        let mut forced_prefix = 0usize;
        {
            let svc = LogService::create(VolumeSeqId(2), pool.clone(), cfg.clone(), ck.clone())
                .expect("create");
            svc.create_log("/p").expect("create log");
            for (i, (len, forced)) in lens.iter().enumerate() {
                let mut payload = format!("e{i}:").into_bytes();
                payload.resize(*len as usize + 4, b'z');
                let opts = if *forced {
                    AppendOpts::forced()
                } else {
                    AppendOpts::standard()
                };
                svc.append_path("/p", &payload, opts).expect("append");
                if *forced {
                    forced_prefix = i + 1;
                }
            }
        }
        let (svc, _) = LogService::recover(pool.devices(), pool.clone(), cfg, ck).expect("recover");
        let mut cur = svc.cursor("/p").expect("cursor");
        let got = cur.collect_remaining().expect("scan");
        assert!(
            got.len() >= forced_prefix,
            "{} < {forced_prefix}",
            got.len()
        );
        assert!(got.len() <= lens.len());
        for (i, e) in got.iter().enumerate() {
            assert!(
                e.data.starts_with(format!("e{i}:").as_bytes()),
                "entry {i} wrong"
            );
        }
    });
}

/// One operation of the verified-append receipt property.
#[derive(Debug, Clone)]
enum VerifiedOp {
    Append {
        log: u8,
        len: u16,
        forced: bool,
    },
    Batch {
        items: u8,
        forced: bool,
    },
    /// Arm the fault injector to garble the next `n` device appends.
    Corrupt(u8),
    Flush,
}

fn arb_verified_op() -> Gen<VerifiedOp> {
    let append = {
        let log = u8s(0..2);
        let len = u16s(1..600);
        let forced = bools();
        Gen::new(move |src| VerifiedOp::Append {
            log: log.generate(src),
            len: len.generate(src),
            forced: forced.generate(src),
        })
    };
    let batch = {
        let items = u8s(1..5);
        let forced = bools();
        Gen::new(move |src| VerifiedOp::Batch {
            items: items.generate(src),
            forced: forced.generate(src),
        })
    };
    weighted(vec![
        (8, append),
        (2, batch),
        // Up to seven failures in a row: the re-placement limit.
        (2, u8s(0..8).map(VerifiedOp::Corrupt)),
        (1, just(VerifiedOp::Flush)),
    ])
}

/// With append verification on and corruption injected at random, every
/// receipt — buffered, forced or batched, issued before its block was
/// re-placed — reads back its own payload, and cursor scans return each
/// log in append order.
#[test]
fn receipts_read_back_under_verification() {
    use clio_device::{FaultPlan, FaultyDevice, SharedDevice};
    use clio_testkit::sync::Mutex;
    use clio_volume::RecordingPool;

    let g = vec_of(&arb_verified_op(), 1..100);
    check("receipts_read_back_under_verification", 24, &g, |ops| {
        let slot = Arc::new(Mutex::new(None));
        let captured = slot.clone();
        let pool =
            RecordingPool::wrapping(Arc::new(MemDevicePool::new(256, 1 << 14)), move |base| {
                let faulty = Arc::new(FaultyDevice::new(base, FaultPlan::default()));
                *captured.lock() = Some(faulty.clone());
                faulty as SharedDevice
            });
        let svc = LogService::create(
            VolumeSeqId(1),
            Arc::new(pool),
            ServiceConfig::small().with_verified_appends(),
            Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
        )
        .expect("create service");
        let faulty: Arc<FaultyDevice> = slot.lock().clone().expect("device opened");
        let paths = ["/a", "/b"];
        for p in paths {
            svc.create_log(p).expect("create log");
        }
        let mut logs: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
        let mut receipts = Vec::new();
        let mut counter = 0u32;
        let mut payload = |len: usize| {
            counter += 1;
            let mut p = format!("{counter}:").into_bytes();
            p.resize(len.max(p.len()), b'v');
            p
        };
        let opts = |forced: bool| {
            if forced {
                AppendOpts::forced()
            } else {
                AppendOpts::standard()
            }
        };
        for op in ops {
            match op {
                VerifiedOp::Append { log, len, forced } => {
                    let data = payload(usize::from(*len));
                    let r = svc
                        .append_path(paths[usize::from(*log)], &data, opts(*forced))
                        .expect("append");
                    assert_eq!(svc.read_entry(r.addr).expect("read").data, data);
                    logs[usize::from(*log)].push(data.clone());
                    receipts.push((r, data));
                }
                VerifiedOp::Batch { items, forced } => {
                    let batch: Vec<(String, Vec<u8>)> = (0..usize::from(*items))
                        .map(|i| (paths[i % 2].to_owned(), payload(40 + 30 * i)))
                        .collect();
                    let rs = svc
                        .append_batch(&batch, opts(*forced))
                        .expect("append batch");
                    for (i, (r, (_, data))) in rs.into_iter().zip(batch).enumerate() {
                        logs[i % 2].push(data.clone());
                        receipts.push((r, data));
                    }
                }
                VerifiedOp::Corrupt(n) => faulty.corrupt_next_appends(u32::from(*n)),
                VerifiedOp::Flush => svc.flush().expect("flush"),
            }
        }
        for (r, data) in &receipts {
            let e = svc.read_entry(r.addr).expect("read receipt");
            assert_eq!(&e.data, data, "receipt {:?}", r.addr);
        }
        for (path, want) in paths.iter().zip(&logs) {
            let got: Vec<Vec<u8>> = svc
                .cursor(path)
                .expect("cursor")
                .collect_remaining()
                .expect("scan")
                .into_iter()
                .map(|e| e.data)
                .collect();
            assert_eq!(&got, want, "{path} scan order");
        }
    });
}
