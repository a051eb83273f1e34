//! Platform assembly: spin up an access server plus vantage points, the
//! way the paper's deployment looks (one node at Imperial College with a
//! Monsoon, a Samsung J7 Duo, a Raspberry Pi 3B+ and a Meross socket).

use batterylab_controller::{VantageConfig, VantagePoint};
use batterylab_device::{boot_j7_duo, AndroidDevice};
use batterylab_durable::Wal;
use batterylab_server::{AccessServer, Role, ServerError};
use batterylab_sim::{SimRng, SimTime};
use batterylab_telemetry::{Registry, Report};
use batterylab_workloads::BrowserProfile;

/// A fully assembled BatteryLab deployment.
pub struct Platform {
    /// The cloud access server with every node enrolled.
    pub server: AccessServer,
    /// Console token of the bootstrap admin.
    pub admin_token: u64,
    /// Console token of the default experimenter (`alice`).
    pub experimenter_token: u64,
    /// Root RNG for deriving experiment streams.
    pub rng: SimRng,
    /// The platform-wide metrics registry: scheduler, every node and
    /// every subsystem below them report here.
    pub registry: Registry,
}

/// Ports every §3.4-compliant controller exposes.
pub const NODE_PORTS: [u16; 3] = [2222, 8080, 6081];

impl Platform {
    /// The paper's testbed: one vantage point (`node1`, Imperial College)
    /// with one J7 Duo that has the four §4.2 browsers installed.
    pub fn paper_testbed(seed: u64) -> Platform {
        let rng = SimRng::new(seed);
        let registry = Registry::new();
        let mut server = AccessServer::new("52.1.2.3", "admin", "bootstrap-pw");
        let admin_token = server
            .login("admin", "bootstrap-pw", true)
            .expect("bootstrap admin")
            .token;
        server
            .add_user(admin_token, "alice", "alice-pw", Role::Experimenter)
            .expect("fresh directory");
        let experimenter_token = server
            .login("alice", "alice-pw", true)
            .expect("experimenter login")
            .token;

        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("node1"));
        let device = boot_j7_duo(&rng, "j7duo-0001");
        for profile in BrowserProfile::all_four() {
            device.install_package(&profile.package);
        }
        vp.add_device(device);
        server
            .enroll_node(
                admin_token,
                vp,
                "155.198.1.10",
                "hk:node1",
                &NODE_PORTS,
                SimTime::ZERO,
            )
            .expect("enrolment");
        server.set_telemetry(&registry);

        Platform {
            server,
            admin_token,
            experimenter_token,
            rng,
            registry,
        }
    }

    /// The paper testbed with crash-consistent durability: a fresh
    /// write-ahead log is attached to the server (snapshotting the
    /// boot-time directory, billing state and enrolments), so the
    /// deployment can be killed at any record boundary and rebuilt with
    /// [`Platform::crash_and_recover`].
    pub fn durable_testbed(seed: u64) -> (Platform, Wal) {
        let platform = Self::paper_testbed(seed);
        let wal = Wal::new();
        wal.set_telemetry(&platform.registry);
        let mut platform = platform;
        platform.server.attach_wal(&wal);
        (platform, wal)
    }

    /// Kill the access server's in-memory state and rebuild it from the
    /// write-ahead log — the crash model the paper's cloud tier needs:
    /// the server process dies, but the vantage points (and their
    /// devices), the platform registry and the WAL's disk all survive.
    ///
    /// The recovered server re-adopts the surviving nodes, rebinds the
    /// shared telemetry registry and re-issues console sessions (they
    /// are deliberately ephemeral — tokens restart from 1). Recovery
    /// metrics (`durable.recoveries`, `durable.replayed_records`,
    /// `durable.torn_bytes`) land in the separate `recovery_telemetry`
    /// registry so the platform-wide report stays byte-comparable with
    /// an uninterrupted run.
    pub fn crash_and_recover(
        &mut self,
        wal: &Wal,
        recovery_telemetry: &Registry,
    ) -> Result<(), ServerError> {
        let recovered = AccessServer::recover(wal, recovery_telemetry)?;
        let dead = std::mem::replace(&mut self.server, recovered);
        for (_, vp) in dead.take_nodes() {
            self.server.adopt_node(vp)?;
        }
        self.server.set_telemetry(&self.registry);
        self.admin_token = self.server.login("admin", "bootstrap-pw", true)?.token;
        self.experimenter_token = self.server.login("alice", "alice-pw", true)?.token;
        Ok(())
    }

    /// Snapshot the platform-wide metrics (deterministic under a fixed
    /// seed: all timestamps come from the sim virtual clock).
    pub fn metrics(&self) -> Report {
        self.registry.snapshot()
    }

    /// The single node of the paper testbed.
    pub fn node1(&mut self) -> &mut VantagePoint {
        self.server.node_mut("node1").expect("node1 enrolled")
    }

    /// The J7 Duo's serial at node1.
    pub fn j7_serial(&self) -> &'static str {
        "j7duo-0001"
    }

    /// Handle to the J7 Duo.
    pub fn j7(&mut self) -> AndroidDevice {
        self.node1()
            .device_handle("j7duo-0001")
            .expect("device attached")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_assembles() {
        let mut p = Platform::paper_testbed(1);
        assert_eq!(p.server.node_names(), vec!["node1"]);
        assert_eq!(p.node1().list_devices(), vec!["j7duo-0001"]);
        assert_eq!(
            p.server.registry().resolve("node1.batterylab.dev").unwrap(),
            "155.198.1.10"
        );
    }

    #[test]
    fn browsers_preinstalled() {
        let mut p = Platform::paper_testbed(2);
        let serial = p.j7_serial().to_string();
        let out = p.node1().execute_adb(&serial, "pm list packages").unwrap();
        for pkg in [
            "com.brave.browser",
            "com.android.chrome",
            "com.microsoft.emmx",
            "org.mozilla.firefox",
        ] {
            assert!(out.contains(pkg), "missing {pkg}");
        }
    }

    #[test]
    fn one_registry_covers_the_deployment() {
        let mut p = Platform::paper_testbed(3);
        let serial = p.j7_serial().to_string();
        p.node1().execute_adb(&serial, "echo hi").unwrap();
        let report = p.metrics();
        assert_eq!(report.counter("node1.controller.adb_commands"), 1);
        assert!(report.counter("adb.frames_tx") > 0);
    }

    #[test]
    fn deterministic_assembly() {
        let a = Platform::paper_testbed(7).rng.seed();
        let b = Platform::paper_testbed(7).rng.seed();
        assert_eq!(a, b);
    }
}
