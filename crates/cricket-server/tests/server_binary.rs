//! Smoke test of the `cricket-server` binary: start the real process,
//! connect over TCP with the generated stub, issue CUDA calls, kill it.

use cricket_proto::{CricketV1Client, MemInfoResult};
use oncrpc::TcpTransport;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `cricket-server` process, killed when dropped (also when a
/// failed assert unwinds the test).
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Start the binary on an ephemeral loopback port with `extra` flags
    /// and read back the address it printed.
    fn spawn(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cricket-server"))
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn cricket-server");

        // The binary prints "cricket-server: simulated A100 at <addr> ...".
        let stdout = child.stdout.take().expect("stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        let addr = line
            .split(" at ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .expect("address in banner")
            .to_string();
        Self { child, addr }
    }

    fn connect(&self) -> CricketV1Client {
        let t = TcpTransport::connect(&self.addr).expect("connect");
        t.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        CricketV1Client::new(Box::new(t))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn binary_serves_the_cricket_protocol() {
    let server = Server::spawn(&["--devices", "2"]);
    let mut client = server.connect();
    client.rpc_null().unwrap();
    assert_eq!(
        client
            .cuda_get_device_count()
            .unwrap()
            .into_result()
            .unwrap(),
        2
    );
    let ptr = client.cuda_malloc(&4096).unwrap().into_result().unwrap();
    assert_eq!(client.cuda_memcpy_htod(&ptr, &[5u8; 64]).unwrap(), 0);
    let back = client
        .cuda_memcpy_dtoh(&ptr, &64)
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(back, vec![5u8; 64]);
    assert_eq!(client.cuda_free(&ptr).unwrap(), 0);
}

/// Every connection to the binary is its own session: a client that
/// disconnects while holding device memory has it reclaimed, visible to
/// another client as free memory returning to its baseline.
#[test]
fn binary_reclaims_a_disconnected_clients_allocations() {
    let server = Server::spawn(&[]);
    let mut watcher = server.connect();
    let mut free = || match watcher.cuda_mem_get_info().unwrap() {
        MemInfoResult::Info(info) => info.free,
        other => panic!("mem_get_info failed: {other:?}"),
    };
    let baseline = free();

    let mut doomed = server.connect();
    let ptr = doomed
        .cuda_malloc(&(1 << 20))
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(doomed.cuda_memcpy_htod(&ptr, &[3u8; 256]).unwrap(), 0);
    assert!(free() < baseline);
    // The client vanishes without freeing anything.
    drop(doomed);

    let deadline = Instant::now() + Duration::from_secs(5);
    while free() != baseline {
        assert!(
            Instant::now() < deadline,
            "the binary never reclaimed the disconnected client's memory"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn binary_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_cricket-server"))
        .arg("--bogus")
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn binary_prints_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_cricket-server"))
        .arg("--help")
        .output()
        .expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
