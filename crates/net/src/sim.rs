//! [`SimNet`] / [`SimTransport`] — a deterministic in-memory network for
//! protocol-level fault injection.
//!
//! The net owns every connection's two message queues and a seeded RNG;
//! nothing touches wall-clock time or OS sockets, so a harness that
//! steps clients, [`tick`](SimNet::tick)s the net, and drains the server
//! side in a fixed order replays bit-identically from one `u64` seed.
//!
//! Faults are applied per enqueued line, in both directions:
//!
//! * **drop** — the line vanishes (the sender never knows);
//! * **duplicate** — the line is delivered twice;
//! * **delay** — delivery is deferred a seeded number of ticks;
//! * **sever** — the connection dies mid-flight: queued lines are lost
//!   and both ends see `Closed` until the client reconnects.
//!
//! [`kill_server`](SimNet::kill_server) models a process crash: every
//! connection is severed at once and new connections are refused until
//! [`restart_server`](SimNet::restart_server). The protocol crash oracle
//! kills the server *immediately after* it processed a request frame —
//! state mutated, response discarded — which is the hardest point: the
//! client cannot distinguish "request lost" from "response lost", and
//! only the protocol's idempotency handles keep the retry from doubling
//! the effect.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::transport::{NetError, Transport};

/// Per-line fault probabilities (out of 1000) and delay bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// ‰ chance a line is dropped.
    pub drop_per_mille: u16,
    /// ‰ chance a line is delivered twice.
    pub dup_per_mille: u16,
    /// Maximum delivery delay in ticks (each line draws uniformly from
    /// `0..=delay_max_ticks`).
    pub delay_max_ticks: u64,
    /// ‰ chance the connection is severed instead of delivering.
    pub sever_per_mille: u16,
}

impl FaultConfig {
    /// A modest mixed-fault profile for sweeps: occasional drops and
    /// duplicates, small delays, rare severs.
    pub fn light() -> Self {
        FaultConfig {
            drop_per_mille: 60,
            dup_per_mille: 60,
            delay_max_ticks: 3,
            sever_per_mille: 8,
        }
    }
}

struct SimConn {
    alive: bool,
    /// `(deliver_at_tick, line)`, in enqueue order.
    to_server: VecDeque<(u64, String)>,
    to_client: VecDeque<(u64, String)>,
}

struct SimNetInner {
    rng: u64,
    faults: FaultConfig,
    tick: u64,
    next_conn: u64,
    server_alive: bool,
    /// `BTreeMap` so server-side draining visits connections in a
    /// deterministic order.
    conns: BTreeMap<u64, SimConn>,
}

impl SimNetInner {
    /// xorshift64*: tiny, seeded, plenty for fault dice.
    fn roll(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn chance(&mut self, per_mille: u16) -> bool {
        per_mille > 0 && self.roll() % 1000 < per_mille as u64
    }

    fn enqueue(&mut self, conn: u64, line: &str, to_server: bool) -> Result<(), NetError> {
        if self.chance(self.faults.sever_per_mille) {
            if let Some(c) = self.conns.get_mut(&conn) {
                c.alive = false;
                c.to_server.clear();
                c.to_client.clear();
            }
            return Err(NetError::Closed("connection severed by fault".into()));
        }
        if self.chance(self.faults.drop_per_mille) {
            return Ok(()); // lost in flight; the sender cannot tell
        }
        let copies = if self.chance(self.faults.dup_per_mille) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = if self.faults.delay_max_ticks > 0 {
                self.roll() % (self.faults.delay_max_ticks + 1)
            } else {
                0
            };
            let at = self.tick + delay;
            let Some(c) = self.conns.get_mut(&conn) else {
                return Err(NetError::Closed("unknown connection".into()));
            };
            if to_server {
                c.to_server.push_back((at, line.to_owned()));
            } else {
                c.to_client.push_back((at, line.to_owned()));
            }
        }
        Ok(())
    }

    /// Pop the first due line from `queue` (delivery respects enqueue
    /// order per connection; a delayed line blocks those behind it, like
    /// a TCP stream would).
    fn pop_due(queue: &mut VecDeque<(u64, String)>, tick: u64) -> Option<String> {
        match queue.front() {
            Some((at, _)) if *at <= tick => queue.pop_front().map(|(_, l)| l),
            _ => None,
        }
    }
}

/// The shared in-memory network. Cheap to clone; all clones address the
/// same queues.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<Mutex<SimNetInner>>,
}

impl SimNet {
    /// A fault-free deterministic net seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimNet {
            inner: Arc::new(Mutex::new(SimNetInner {
                // splitmix64-style scramble so adjacent seeds diverge,
                // then force odd (zero is xorshift's fixed point).
                rng: {
                    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)) | 1
                },
                faults: FaultConfig::default(),
                tick: 0,
                next_conn: 0,
                server_alive: true,
                conns: BTreeMap::new(),
            })),
        }
    }

    /// Enable fault injection.
    pub fn with_faults(self, faults: FaultConfig) -> Self {
        self.inner.lock().expect("simnet").faults = faults;
        self
    }

    /// Advance virtual time one tick (releases delayed deliveries).
    pub fn tick(&self) {
        self.inner.lock().expect("simnet").tick += 1;
    }

    /// Open a client connection. Fails while the server is down.
    pub fn connect(&self) -> Result<SimTransport, NetError> {
        let mut inner = self.inner.lock().expect("simnet");
        if !inner.server_alive {
            return Err(NetError::Closed("server is down".into()));
        }
        let conn = inner.next_conn;
        inner.next_conn += 1;
        inner.conns.insert(
            conn,
            SimConn {
                alive: true,
                to_server: VecDeque::new(),
                to_client: VecDeque::new(),
            },
        );
        Ok(SimTransport {
            net: self.clone(),
            conn,
        })
    }

    /// Server side: the next due request line, as `(conn, line)`, in
    /// deterministic connection order. `None` when nothing is due.
    pub fn server_recv(&self) -> Option<(u64, String)> {
        let mut inner = self.inner.lock().expect("simnet");
        if !inner.server_alive {
            return None;
        }
        let tick = inner.tick;
        let due: Option<u64> = inner
            .conns
            .iter()
            .find(|(_, c)| c.alive && c.to_server.front().is_some_and(|(at, _)| *at <= tick))
            .map(|(id, _)| *id);
        let conn = due?;
        let line = SimNetInner::pop_due(
            &mut inner.conns.get_mut(&conn).expect("found").to_server,
            tick,
        )
        .expect("front was due");
        Some((conn, line))
    }

    /// Server side: send a response line to `conn` (faults apply).
    pub fn server_send(&self, conn: u64, line: &str) {
        let mut inner = self.inner.lock().expect("simnet");
        if !inner.server_alive {
            return;
        }
        let alive = inner.conns.get(&conn).is_some_and(|c| c.alive);
        if alive {
            // A sever rolled here already marked the connection dead;
            // the client discovers it on its next send/recv.
            let _ = inner.enqueue(conn, line, false);
        }
    }

    /// Crash the server: every connection is severed (in-flight lines in
    /// both directions are lost) and new connections are refused until
    /// [`restart_server`](Self::restart_server).
    pub fn kill_server(&self) {
        let mut inner = self.inner.lock().expect("simnet");
        inner.server_alive = false;
        for c in inner.conns.values_mut() {
            c.alive = false;
            c.to_server.clear();
            c.to_client.clear();
        }
    }

    /// Bring a (recovered) server back; clients may reconnect.
    pub fn restart_server(&self) {
        self.inner.lock().expect("simnet").server_alive = true;
    }

    /// Whether the server is accepting connections.
    pub fn server_alive(&self) -> bool {
        self.inner.lock().expect("simnet").server_alive
    }
}

/// One client endpoint of a [`SimNet`] connection.
pub struct SimTransport {
    net: SimNet,
    conn: u64,
}

impl SimTransport {
    /// The current connection id (changes on reconnect).
    pub fn conn_id(&self) -> u64 {
        self.conn
    }
}

impl Transport for SimTransport {
    fn send(&mut self, line: &str) -> Result<(), NetError> {
        let mut inner = self.net.inner.lock().expect("simnet");
        let alive = inner.conns.get(&self.conn).is_some_and(|c| c.alive);
        if !alive {
            return Err(NetError::Closed("connection is dead".into()));
        }
        if !inner.server_alive {
            // The TCP analogue: the send "succeeds" locally but the peer
            // is gone; the line is lost and the client times out.
            return Ok(());
        }
        inner.enqueue(self.conn, line, true)
    }

    fn try_recv(&mut self) -> Result<Option<String>, NetError> {
        let mut inner = self.net.inner.lock().expect("simnet");
        let tick = inner.tick;
        let Some(c) = inner.conns.get_mut(&self.conn) else {
            return Err(NetError::Closed("unknown connection".into()));
        };
        if !c.alive {
            return Err(NetError::Closed("connection is dead".into()));
        }
        Ok(SimNetInner::pop_due(&mut c.to_client, tick))
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        let fresh = self.net.connect()?;
        self.conn = fresh.conn;
        Ok(())
    }

    fn close(&mut self) {
        let mut inner = self.net.inner.lock().expect("simnet");
        if let Some(c) = inner.conns.get_mut(&self.conn) {
            c.alive = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_net_delivers_in_order() {
        let net = SimNet::new(7);
        let mut t = net.connect().expect("server is up");
        t.send("a").unwrap();
        t.send("b").unwrap();
        let (conn, first) = net.server_recv().expect("due");
        assert_eq!((conn, first.as_str()), (t.conn_id(), "a"));
        net.server_send(conn, "ack-a");
        assert_eq!(net.server_recv().map(|(_, l)| l).as_deref(), Some("b"));
        assert_eq!(t.try_recv().unwrap().as_deref(), Some("ack-a"));
        assert_eq!(t.try_recv().unwrap(), None);
    }

    #[test]
    fn kill_severs_and_restart_allows_reconnect() {
        let net = SimNet::new(7);
        let mut t = net.connect().expect("up");
        t.send("x").unwrap();
        net.kill_server();
        assert!(net.server_recv().is_none(), "in-flight lines are lost");
        assert!(matches!(t.try_recv(), Err(NetError::Closed(_))));
        assert!(matches!(t.reconnect(), Err(NetError::Closed(_))));
        net.restart_server();
        t.reconnect().expect("reconnects after restart");
        t.send("y").unwrap();
        assert_eq!(net.server_recv().map(|(_, l)| l).as_deref(), Some("y"));
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = |seed: u64| -> Vec<Option<String>> {
            let net = SimNet::new(seed).with_faults(FaultConfig {
                drop_per_mille: 300,
                dup_per_mille: 300,
                delay_max_ticks: 2,
                sever_per_mille: 0,
            });
            let mut t = net.connect().expect("up");
            let mut seen = Vec::new();
            for i in 0..32 {
                let _ = t.send(&format!("m{i}"));
                net.tick();
                seen.push(net.server_recv().map(|(_, l)| l));
                seen.push(net.server_recv().map(|(_, l)| l));
            }
            seen
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42),
            run(43),
            "different seeds explore different schedules"
        );
    }
}
