//! End-to-end tests: a served NativeCluster over real sockets.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use islands_core::native::{
    ExecutorConfig, NativeCluster, NativeClusterConfig, PartitionConfig, PartitionEngine,
    PartitionExecutor,
};
use islands_server::{
    Backend, Client, ClientPool, Endpoint, Reply, Request, Server, ServerConfig, ServerHandle,
};
use islands_workload::{OpKind, PlanBranch, PlanRequest, TxnRequest};

static NEXT_SOCK: AtomicU32 = AtomicU32::new(0);

fn uds_endpoint() -> Endpoint {
    let n = NEXT_SOCK.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("islands-e2e-{}-{n}.sock", std::process::id()));
    Endpoint::Uds(p)
}

fn cluster() -> Arc<NativeCluster> {
    Arc::new(
        NativeCluster::build_micro(&NativeClusterConfig {
            n_instances: 4,
            total_rows: 400,
            row_size: 16,
            workers_per_instance: 2,
            buffer_frames: 512,
            ..Default::default()
        })
        .unwrap(),
    )
}

fn spawn(endpoint: Endpoint) -> (Arc<NativeCluster>, ServerHandle) {
    let c = cluster();
    let h = Server::spawn(Arc::clone(&c), endpoint, ServerConfig::default()).unwrap();
    (c, h)
}

fn update(keys: &[u64]) -> TxnRequest {
    TxnRequest {
        kind: OpKind::Update,
        keys: keys.to_vec(),
        multisite: keys.len() > 1,
    }
}

#[test]
fn uds_submit_local_and_distributed() {
    let (cluster, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();

    // Keys 0..100 live in instance 0: local, no 2PC.
    match client.submit(&update(&[1, 2])).unwrap() {
        Reply::Committed { distributed, .. } => assert!(!distributed),
        other => panic!("unexpected reply {other:?}"),
    }
    // Keys spanning instances 0 and 3: distributed.
    match client.submit(&update(&[10, 390])).unwrap() {
        Reply::Committed { distributed, .. } => assert!(distributed),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(cluster.audit_sum().unwrap(), 4);

    assert!(client.ping().unwrap() < Duration::from_secs(1));
    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.commits, 2);
    assert_eq!(stats.aborts, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.requests, 4); // 2 submits + ping + drain
}

#[test]
fn tcp_round_trip_works() {
    let (_cluster, handle) = spawn(Endpoint::Tcp("127.0.0.1:0".parse().unwrap()));
    // Port 0 resolved to a real port.
    match handle.endpoint() {
        Endpoint::Tcp(addr) => assert_ne!(addr.port(), 0),
        other => panic!("expected tcp endpoint, got {other}"),
    }
    let mut client = Client::connect(handle.endpoint()).unwrap();
    assert!(matches!(
        client.submit(&update(&[7])).unwrap(),
        Reply::Committed { .. }
    ));
    client.drain_server().unwrap();
    assert_eq!(handle.join().unwrap().commits, 1);
}

#[test]
fn pipelined_replies_come_back_in_order() {
    let (cluster, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let batch: Vec<TxnRequest> = (0..50).map(|i| update(&[i * 7 % 400])).collect();
    let replies = client.submit_pipelined(&batch).unwrap();
    assert_eq!(replies.len(), 50);
    assert!(replies.iter().all(|r| matches!(r, Reply::Committed { .. })));
    assert_eq!(cluster.audit_sum().unwrap(), 50);
    client.drain_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn unsatisfiable_request_gets_error_reply_and_connection_survives() {
    let (_cluster, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[999_999])).unwrap() {
        Reply::Error { message } => assert!(message.contains("key not found"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    // The session decoded a well-formed frame; it must keep serving.
    assert!(matches!(
        client.submit(&update(&[3])).unwrap(),
        Reply::Committed { .. }
    ));
    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.commits, 1);
}

#[test]
fn oversized_frame_is_answered_with_error_and_hangup() {
    let (_cluster, handle) = spawn(uds_endpoint());
    let path = match handle.endpoint() {
        Endpoint::Uds(p) => PathBuf::from(p),
        other => panic!("expected uds, got {other}"),
    };
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    raw.write_all(&(islands_server::MAX_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    raw.flush().unwrap();
    // Server replies with a protocol error frame, then closes.
    let mut reader = islands_server::FrameReader::new();
    let reply = loop {
        match reader.next_message::<Reply>().unwrap() {
            Some(r) => break r,
            None => {
                use std::io::Read;
                let mut buf = [0u8; 1024];
                let n = raw.read(&mut buf).unwrap();
                assert_ne!(n, 0, "server closed without an error reply");
                reader.extend(&buf[..n]);
            }
        }
    };
    match reply {
        Reply::Error { message } => assert!(message.contains("protocol error"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    handle.initiate_shutdown();
    handle.join().unwrap();
}

#[test]
fn pool_shares_connections_across_threads() {
    let (cluster, handle) = spawn(uds_endpoint());
    let pool = Arc::new(ClientPool::new(handle.endpoint().clone()));
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let pool = Arc::clone(&pool);
        workers.push(std::thread::spawn(move || {
            for i in 0..25u64 {
                let key = (t * 100 + i) % 400;
                match pool.submit(&update(&[key])).unwrap() {
                    Reply::Committed { .. } | Reply::Aborted { .. } => {}
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    // Checked-in connections are reused, not reopened per request.
    assert!(pool.idle_count() >= 1);
    let committed = handle.stats().commits;
    assert_eq!(cluster.audit_sum().unwrap(), committed);
    pool.get().unwrap().drain_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn drain_completes_while_a_client_keeps_sending() {
    let (_cluster, handle) = spawn(uds_endpoint());
    let ep = handle.endpoint().clone();
    // A client that never stops submitting: its session must still exit
    // once a drain lands (after answering the batch in flight).
    let busy = std::thread::spawn(move || {
        let mut c = Client::connect(&ep).unwrap();
        let mut replied = 0u64;
        // Submit until the drained server hangs up on us.
        while c.submit(&update(&[replied % 400])).is_ok() {
            replied += 1;
        }
        replied
    });
    std::thread::sleep(Duration::from_millis(100));
    let mut draining = Client::connect(handle.endpoint()).unwrap();
    draining.drain_server().unwrap();
    // The busy session exits after its in-flight batch, so join returns.
    let stats = handle.join().unwrap();
    let replied = busy.join().unwrap();
    assert!(replied > 0, "busy client must have made progress");
    // Every answered submit was counted; at most the final unanswered one
    // can exceed the client's view.
    assert!(stats.commits >= replied);
}

#[test]
fn bad_frame_mid_pipeline_gets_prior_replies_then_error() {
    use islands_server::{Request, WireMessage};
    let (cluster, handle) = spawn(uds_endpoint());
    let path = match handle.endpoint() {
        Endpoint::Uds(p) => PathBuf::from(p),
        other => panic!("expected uds, got {other}"),
    };
    let mut raw = std::os::unix::net::UnixStream::connect(&path).unwrap();
    // One valid submit, then a frame with an unknown tag, in a single write.
    let mut bytes = Vec::new();
    Request::Submit(update(&[1])).encode_frame(&mut bytes);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(0x7F);
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();

    let mut reader = islands_server::FrameReader::new();
    let mut replies = Vec::new();
    loop {
        match reader.next_message::<Reply>().unwrap() {
            Some(r) => {
                replies.push(r);
                continue;
            }
            None => {
                use std::io::Read;
                let mut buf = [0u8; 1024];
                let n = raw.read(&mut buf).unwrap();
                if n == 0 {
                    break; // server hung up after the error reply
                }
                reader.extend(&buf[..n]);
            }
        }
    }
    // The request decoded before the bad frame was executed and answered;
    // the bad frame got a protocol error; then the connection closed.
    assert_eq!(replies.len(), 2, "{replies:?}");
    assert!(matches!(replies[0], Reply::Committed { .. }), "{replies:?}");
    match &replies[1] {
        Reply::Error { message } => assert!(message.contains("protocol error"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(cluster.audit_sum().unwrap(), 1);
    handle.initiate_shutdown();
    handle.join().unwrap();
}

fn spawn_partition(lo: u64, hi: u64) -> (std::sync::Arc<PartitionEngine>, ServerHandle) {
    let engine = std::sync::Arc::new(
        PartitionEngine::build(&PartitionConfig {
            lo,
            hi,
            row_size: 16,
            buffer_frames: 512,
            ..Default::default()
        })
        .unwrap(),
    );
    let handle = Server::spawn_backend(
        Backend::Partition(std::sync::Arc::clone(&engine)),
        uds_endpoint(),
        ServerConfig::default(),
    )
    .unwrap();
    (engine, handle)
}

/// A micro update branch, shipped as its plan lowering.
fn prepare(gtid: u64, keys: &[u64]) -> Request {
    Request::PreparePlan(PlanBranch {
        gtid,
        plan: PlanRequest::from(&TxnRequest {
            kind: OpKind::Update,
            keys: keys.to_vec(),
            multisite: true,
        }),
    })
}

#[test]
fn partition_backend_runs_wire_level_2pc_phase_by_phase() {
    use islands_dtxn::Vote;
    let (engine, handle) = spawn_partition(0, 100);
    let mut coord = Client::connect(handle.endpoint()).unwrap();

    // Phase 1: prepare a writer branch — Yes vote, branch held in-doubt.
    coord.send_request(&prepare(7, &[1, 2])).unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 7, vote } => assert_eq!(vote, Vote::Yes),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(handle.stats().in_doubt, 1);
    // Updates are applied in place under X locks (undo images roll them
    // back on abort), so the raw audit scan already sees them — what the
    // prepare guarantees is that the *decision* picks keep-or-undo.
    assert_eq!(engine.audit_sum().unwrap(), 2);

    // Phase 2: commit decision applies the branch and acks.
    coord
        .send_request(&Request::Decision {
            gtid: 7,
            commit: true,
        })
        .unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Ack { gtid: 7 } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(engine.audit_sum().unwrap(), 2);
    assert_eq!(handle.stats().in_doubt, 0);

    // Read-only branch: ReadOnly vote, no phase 2 required.
    coord
        .send_request(&Request::PreparePlan(PlanBranch {
            gtid: 8,
            plan: PlanRequest::from(&TxnRequest {
                kind: OpKind::Read,
                keys: vec![5],
                multisite: true,
            }),
        }))
        .unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 8, vote } => assert_eq!(vote, Vote::ReadOnly),
        other => panic!("unexpected reply {other:?}"),
    }

    // Abort decision for an unknown gtid is a presumed-abort no-op: acked.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: false,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 999 }
    ));
    // Commit for an unknown gtid is a protocol error.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: true,
        })
        .unwrap();
    assert!(matches!(coord.recv_reply().unwrap(), Reply::Error { .. }));

    coord.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.prepares, 2);
    assert_eq!(stats.in_doubt, 0);
    assert_eq!(stats.presumed_aborts, 0);
}

#[test]
fn dropped_coordinator_connection_presumes_abort_and_releases_locks() {
    let (engine, handle) = spawn_partition(0, 100);

    // Coordinator prepares a branch on key 9... and vanishes.
    {
        let mut coord = Client::connect(handle.endpoint()).unwrap();
        coord.send_request(&prepare(11, &[9])).unwrap();
        match coord.recv_reply().unwrap() {
            Reply::Vote { gtid: 11, .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.stats().in_doubt, 1);
    } // connection dropped here, decision never sent

    // The session notices the hangup, presumes abort, and releases the X
    // lock: an ordinary client can now update the same key.
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[9])).unwrap() {
        Reply::Committed { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    // The prepared update was rolled back; only the new one is visible.
    assert_eq!(engine.audit_sum().unwrap(), 1);

    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.presumed_aborts, 1);
    assert_eq!(stats.in_doubt, 0);
}

#[test]
fn cluster_backend_rejects_2pc_frames() {
    let (_cluster, handle) = spawn(uds_endpoint());
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.send_request(&prepare(1, &[1])).unwrap();
    assert!(matches!(client.recv_reply().unwrap(), Reply::Error { .. }));
    client
        .send_request(&Request::Decision {
            gtid: 1,
            commit: false,
        })
        .unwrap();
    assert!(matches!(client.recv_reply().unwrap(), Reply::Error { .. }));
    client.drain_server().unwrap();
    handle.join().unwrap();
}

#[test]
fn drain_while_other_clients_are_connected() {
    let (_cluster, handle) = spawn(uds_endpoint());
    let mut idle_client = Client::connect(handle.endpoint()).unwrap();
    assert!(matches!(
        idle_client.submit(&update(&[5])).unwrap(),
        Reply::Committed { .. }
    ));
    let mut draining = Client::connect(handle.endpoint()).unwrap();
    draining.drain_server().unwrap();
    // Join must complete even though idle_client never disconnects
    // explicitly: idle sessions notice the flag at the next poll tick.
    handle.join().unwrap();
    // The drained server is gone; new submissions fail.
    assert!(idle_client.submit(&update(&[6])).is_err());
}

#[test]
fn connection_churn_is_survived_and_counted() {
    // Companion to the SessionSet unit regression: a server under rapid
    // connect/use/disconnect churn keeps accepting, serves every
    // connection, and drains cleanly afterwards.
    let (_cluster, handle) = spawn(uds_endpoint());
    const CHURN: u64 = 150;
    for i in 0..CHURN {
        let mut c = Client::connect(handle.endpoint()).unwrap();
        match c.submit(&update(&[i % 400])).unwrap() {
            Reply::Committed { .. } | Reply::Aborted { .. } => {}
            other => panic!("churn connection {i}: unexpected reply {other:?}"),
        }
        // Dropping c closes the connection; the session thread exits.
    }
    let mut closer = Client::connect(handle.endpoint()).unwrap();
    closer.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.connections, CHURN + 1);
    assert_eq!(stats.requests, CHURN + 1); // one submit each + drain
}

// ---------------------------------------------------------------------------
// Serial-executor backend: sessions take turns on the partition, one
// transaction at a time, with no lock-table acquisition.
// ---------------------------------------------------------------------------

fn spawn_executor(lo: u64, hi: u64) -> (Arc<PartitionExecutor>, ServerHandle) {
    let exec = Arc::new(
        PartitionExecutor::spawn(ExecutorConfig {
            partition: PartitionConfig {
                lo,
                hi,
                row_size: 16,
                buffer_frames: 512,
                ..Default::default()
            },
        })
        .unwrap(),
    );
    let handle = Server::spawn_backend(
        Backend::Executor(Arc::clone(&exec)),
        uds_endpoint(),
        ServerConfig::default(),
    )
    .unwrap();
    (exec, handle)
}

#[test]
fn executor_backend_serves_local_submissions_from_many_connections() {
    let (exec, handle) = spawn_executor(0, 100);
    // Several concurrent connections share the one serial partition:
    // connection count is decoupled from its single execution slot.
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(handle.endpoint()).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        for k in 0..10u64 {
            match c.submit(&update(&[(i as u64 * 10 + k) % 100])).unwrap() {
                Reply::Committed {
                    distributed,
                    retries,
                    ..
                } => {
                    assert!(!distributed);
                    assert_eq!(retries, 0, "serial execution never retries");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert_eq!(exec.audit_sum().unwrap(), 40);
    clients[0].drain_server().unwrap();
    drop(clients);
    let stats = handle.join().unwrap();
    assert_eq!(stats.commits, 40);
    assert_eq!(stats.aborts, 0);
    assert_eq!(stats.in_doubt, 0);
}

#[test]
fn executor_backend_runs_wire_level_2pc_phase_by_phase() {
    use islands_dtxn::Vote;
    let (exec, handle) = spawn_executor(0, 100);
    let mut coord = Client::connect(handle.endpoint()).unwrap();

    // Phase 1: writer branch prepares, parks in-doubt on the executor.
    coord.send_request(&prepare(7, &[1, 2])).unwrap();
    match coord.recv_reply().unwrap() {
        Reply::Vote { gtid: 7, vote } => assert_eq!(vote, Vote::Yes),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(handle.stats().in_doubt, 1);

    // A conflicting local submission aborts immediately (the executor's
    // in-doubt key set stands in for the locks the branch would hold).
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[2])).unwrap() {
        Reply::Aborted { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    // Non-conflicting work keeps flowing while the branch is in-doubt.
    assert!(matches!(
        client.submit(&update(&[50])).unwrap(),
        Reply::Committed { .. }
    ));

    // Phase 2: commit decision applies the branch, releases the keys.
    coord
        .send_request(&Request::Decision {
            gtid: 7,
            commit: true,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 7 }
    ));
    assert_eq!(handle.stats().in_doubt, 0);
    assert!(matches!(
        client.submit(&update(&[2])).unwrap(),
        Reply::Committed { .. }
    ));
    assert_eq!(exec.audit_sum().unwrap(), 4);

    // Presumed-abort protocol corners, same answers as the locked backend.
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: false,
        })
        .unwrap();
    assert!(matches!(
        coord.recv_reply().unwrap(),
        Reply::Ack { gtid: 999 }
    ));
    coord
        .send_request(&Request::Decision {
            gtid: 999,
            commit: true,
        })
        .unwrap();
    assert!(matches!(coord.recv_reply().unwrap(), Reply::Error { .. }));

    coord.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.prepares, 1);
    assert_eq!(stats.in_doubt, 0);
    assert_eq!(stats.presumed_aborts, 0);
}

#[test]
fn executor_backend_presumes_abort_when_coordinator_vanishes() {
    let (exec, handle) = spawn_executor(0, 100);
    {
        let mut coord = Client::connect(handle.endpoint()).unwrap();
        coord.send_request(&prepare(11, &[9])).unwrap();
        match coord.recv_reply().unwrap() {
            Reply::Vote { gtid: 11, .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(handle.stats().in_doubt, 1);
    } // coordinator connection dropped, decision never sent

    // The dying session's close presume-aborts its branch on the executor;
    // the key is free again for ordinary traffic.
    let mut client = Client::connect(handle.endpoint()).unwrap();
    match client.submit(&update(&[9])).unwrap() {
        Reply::Committed { .. } => {}
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(exec.audit_sum().unwrap(), 1, "prepared update rolled back");

    client.drain_server().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.presumed_aborts, 1);
    assert_eq!(stats.in_doubt, 0);
}

// ---------------------------------------------------------------------------
// Accept-latency regression: the acceptor's idle wait must be adaptive.
// ---------------------------------------------------------------------------

#[test]
fn fresh_connection_is_served_in_under_a_millisecond() {
    // Regression: the accept loop used to sleep poll_interval.min(5ms) on
    // every WouldBlock, adding up to 5 ms of connect latency per accept.
    // With the adaptive spin-then-park wait, a connection arriving at a
    // long-idle server must still complete a full connect + ping round
    // trip in well under a millisecond (best-of-N to shrug off scheduler
    // noise on loaded CI machines).
    let (_cluster, handle) = spawn(uds_endpoint());
    // Let the acceptor go fully idle (escalated to its capped park).
    std::thread::sleep(Duration::from_millis(50));
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let started = std::time::Instant::now();
        let mut c = Client::connect(handle.endpoint()).unwrap();
        c.ping().unwrap();
        best = best.min(started.elapsed());
        drop(c);
        std::thread::sleep(Duration::from_millis(10)); // re-idle
    }
    assert!(
        best < Duration::from_millis(1),
        "idle-server connect+ping took {best:?} at best"
    );
    let mut closer = Client::connect(handle.endpoint()).unwrap();
    closer.drain_server().unwrap();
    handle.join().unwrap();
}
