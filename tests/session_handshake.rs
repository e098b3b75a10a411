//! Both session handshakes on one tenant: a feed client's `Hello` and a
//! slicer's `SlicerHello` open the same kind of session, so each must
//! honour the shape the other fixed, count a matching reconnect as one
//! resume, and be refused by a quarantined tenant.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use gpd_server::client::{ClientConfig, FeedClient};
use gpd_server::protocol::{read_message, write_message, Message, TenantStatsRow};
use gpd_server::server::{self, ServerConfig, ServerHandle};
use gpd_server::wal::{FsyncPolicy, WalConfig};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpd-handshake-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Panics while applying any event of the tenant named `doomed`.
fn doomed_predicate(tenant: &str) {
    if tenant == "doomed" {
        panic!("injected predicate crash");
    }
}

fn start_server(dir: &PathBuf) -> ServerHandle {
    let mut config = ServerConfig::new(WalConfig::new(dir).with_fsync(FsyncPolicy::Always));
    config.shards = 2;
    config.io_timeout = Duration::from_secs(5);
    config.fault_injection = Some(doomed_predicate);
    server::start("127.0.0.1:0", config).unwrap()
}

/// Sends `messages` on one fresh connection and returns the reply to
/// the last of them.
fn exchange(addr: SocketAddr, messages: &[Message]) -> Message {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = None;
    for message in messages {
        write_message(&mut stream, message).unwrap();
        reply = Some(read_message(&mut stream).unwrap());
    }
    reply.expect("at least one message")
}

fn hello(tenant: &str, initial: &[bool]) -> Message {
    Message::Hello {
        tenant: tenant.into(),
        initial: initial.to_vec(),
    }
}

fn slicer_hello(tenant: &str, process: u32, initial: &[bool]) -> Message {
    Message::SlicerHello {
        tenant: tenant.into(),
        process,
        epoch: 0,
        initial: initial.to_vec(),
    }
}

fn error_text(reply: Message) -> String {
    match reply {
        Message::Error { message } => message,
        other => panic!("expected Error, got {other:?}"),
    }
}

fn rows(addr: SocketAddr) -> Vec<TenantStatsRow> {
    FeedClient::new(ClientConfig::new(addr.to_string()))
        .query_tenant_stats()
        .unwrap()
}

fn row(addr: SocketAddr, tenant: &str) -> TenantStatsRow {
    rows(addr)
        .into_iter()
        .find(|r| r.tenant == tenant)
        .unwrap_or_else(|| panic!("no stats row for tenant {tenant:?}"))
}

fn stop(handle: ServerHandle, dir: &PathBuf) {
    FeedClient::new(ClientConfig::new(handle.local_addr().to_string()))
        .shutdown()
        .unwrap();
    handle.wait();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_shape_fixed_by_one_handshake_binds_the_other() {
    let dir = tmp_dir("mismatch");
    let handle = start_server(&dir);
    let addr = handle.local_addr();

    // A live Hello session fixes the shape; a SlicerHello with another
    // `initial` (same length, or another length) is refused.
    let ack = exchange(addr, &[hello("fed", &[true, false])]);
    assert!(matches!(ack, Message::HelloAck { .. }), "{ack:?}");
    for initial in [&[false, false][..], &[true, false, true]] {
        let text = error_text(exchange(addr, &[slicer_hello("fed", 0, initial)]));
        assert!(text.contains("session mismatch"), "{text}");
    }

    // And the reverse: a slicer fixes the shape, a Hello must match it.
    let ack = exchange(addr, &[slicer_hello("sliced", 1, &[false, true, false])]);
    assert!(matches!(ack, Message::SlicerHelloAck { .. }), "{ack:?}");
    for initial in [&[false, false, false][..], &[false, true]] {
        let text = error_text(exchange(addr, &[hello("sliced", initial)]));
        assert!(text.contains("session mismatch"), "{text}");
    }

    // A refused handshake is not a resume, and logs nothing.
    for tenant in ["fed", "sliced"] {
        let r = row(addr, tenant);
        assert_eq!((r.resumes, r.events_logged), (0, 1), "{r:?}");
    }
    stop(handle, &dir);
}

#[test]
fn matching_handshakes_of_either_kind_count_one_resume_each() {
    let dir = tmp_dir("resumes");
    let handle = start_server(&dir);
    let addr = handle.local_addr();
    let initial = [false, true, false];

    let ack = exchange(addr, &[hello("mixed", &initial)]);
    assert_eq!(
        ack,
        Message::HelloAck {
            high_water: vec![None, Some(0), None]
        }
    );
    assert_eq!(row(addr, "mixed").resumes, 0);

    let reconnects = [
        slicer_hello("mixed", 2, &initial),
        hello("mixed", &initial),
        slicer_hello("mixed", 0, &initial),
        slicer_hello("mixed", 2, &initial),
    ];
    for (k, handshake) in reconnects.iter().enumerate() {
        let ack = exchange(addr, std::slice::from_ref(handshake));
        let expected_ack = match handshake {
            Message::Hello { .. } => matches!(ack, Message::HelloAck { .. }),
            _ => matches!(ack, Message::SlicerHelloAck { .. }),
        };
        assert!(expected_ack, "{handshake:?} answered {ack:?}");
        let r = row(addr, "mixed");
        assert_eq!(r.resumes, k as u64 + 1, "{r:?}");
        // Only the first handshake logged the session header.
        assert_eq!(r.events_logged, 1, "{r:?}");
    }
    assert_eq!(handle.stats().resumes, reconnects.len() as u64);
    stop(handle, &dir);
}

#[test]
fn a_quarantined_tenant_refuses_both_handshakes() {
    let dir = tmp_dir("quarantine");
    let handle = start_server(&dir);
    let addr = handle.local_addr();
    let initial = [false, false];

    // The injected predicate crash quarantines the tenant on its first
    // event.
    let reply = exchange(
        addr,
        &[
            hello("doomed", &initial),
            Message::Event {
                process: 0,
                clock: vec![1, 0],
            },
        ],
    );
    assert!(error_text(reply).contains("quarantined"));
    assert!(row(addr, "doomed").quarantined);

    for handshake in [
        hello("doomed", &initial),
        slicer_hello("doomed", 1, &initial),
    ] {
        let text = error_text(exchange(addr, &[handshake]));
        assert_eq!(text, "tenant \"doomed\" is quarantined");
    }
    let r = row(addr, "doomed");
    assert_eq!(r.resumes, 0, "{r:?}");
    stop(handle, &dir);
}

#[test]
fn a_slicer_hello_for_a_missing_process_is_refused_before_admission() {
    let dir = tmp_dir("range");
    let handle = start_server(&dir);
    let addr = handle.local_addr();

    let text = error_text(exchange(
        addr,
        &[slicer_hello("ghost", 3, &[true, false, true])],
    ));
    assert_eq!(text, "slicer process 3 out of range for 3 processes");
    // The refusal came before admission: no tenant, no log.
    assert!(rows(addr).iter().all(|r| r.tenant != "ghost"));
    assert!(!dir.join("tenants").join("ghost").exists());

    // The last process is in range; its initial state counts as seen.
    let ack = exchange(addr, &[slicer_hello("ghost", 2, &[true, false, true])]);
    assert!(
        matches!(
            ack,
            Message::SlicerHelloAck {
                high_water: Some(0),
                ..
            }
        ),
        "{ack:?}"
    );
    stop(handle, &dir);
}
