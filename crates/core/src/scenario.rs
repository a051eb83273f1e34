//! The scenario both robustness gates, the chaos soak ([`crate::chaos`])
//! and the crash-point sweep ([`crate::crashpoint`]), are short scripts
//! over: the durable, billed paper testbed under a seeded
//! [`FaultPlan::chaos`] schedule, one batch of experiment jobs, a server
//! crash at any point, and a drive to quiescence along the platform's
//! supervised recovery path.

use batterylab_durable::Wal;
use batterylab_faults::{FaultInjector, FaultPlan};
use batterylab_net::VpnLocation;
use batterylab_server::{Constraints, ExperimentSpec, JobId, Payload};
use batterylab_sim::{SimDuration, SimRng, SimTime};
use batterylab_telemetry::Registry;

use crate::platform::Platform;

/// How long the bench idles between drain passes: long enough for
/// reboot windows to pass and open breakers to half-open.
const IDLE: SimDuration = SimDuration::from_secs(15);

/// Idle-and-probe rounds before a scenario stops waiting for its queue
/// to empty.
const MAX_ROUNDS: usize = 50;

/// One armed testbed, its write-ahead log and its fault schedule.
pub(crate) struct Scenario {
    /// The deployment: server, node1 and its J7 Duo, platform registry.
    pub(crate) platform: Platform,
    /// The server's write-ahead log; it survives every crash.
    pub(crate) wal: Wal,
    /// The armed fault schedule, bound to the platform registry.
    pub(crate) injector: FaultInjector,
    /// Server crashes the schedule drew.
    pub(crate) server_crashes: u32,
}

impl Scenario {
    /// The durable testbed for `seed`, billed, with a chaos schedule at
    /// `intensity` drawn from the stream `plan_label` derives, attached
    /// to the whole deployment.
    pub(crate) fn new(seed: u64, plan_label: &str, intensity: f64) -> Scenario {
        let (mut platform, wal) = Platform::durable_testbed(seed);
        let mut plan_rng = SimRng::new(seed).derive(plan_label);
        let plan = FaultPlan::chaos("node1", &mut plan_rng, intensity);
        let injector = FaultInjector::new(&plan, seed);
        injector.set_telemetry(&platform.registry);
        platform.server.enable_billing();
        platform.server.attach_faults(&injector);
        Scenario {
            platform,
            wal,
            injector,
            server_crashes: plan.server_crashes(),
        }
    }

    /// The job batch every scenario drains: a plain measured browser run,
    /// a mirrored one, and one behind a VPN exit, each with 4 retries.
    /// Together they cross the socket, meter, relay, ADB, encoder and VPN
    /// injection points and the node's health probes. No platform path
    /// runs an SSH server, so the schedule's SSH specs never fire.
    pub(crate) fn submit_batch(&mut self) -> Vec<JobId> {
        let serial = self.platform.j7_serial();
        let token = self.platform.experimenter_token;
        let retried = Constraints {
            max_retries: 4,
            ..Constraints::default()
        };
        let browse = |package: &str, site: &str| {
            ExperimentSpec::measured(
                serial,
                batterylab_automation::Script::browser_workload(package, &[site], 1),
            )
        };
        let plain = browse("com.brave.browser", "https://reuters.com");
        let mut mirrored = browse("com.android.chrome", "https://cnn.com");
        mirrored.mirroring = true;
        let mut tunnelled = browse("org.mozilla.firefox", "https://bbc.co.uk");
        tunnelled.vpn = Some(VpnLocation::Japan);
        [plain, mirrored, tunnelled]
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                self.platform
                    .server
                    .submit_job(
                        token,
                        &format!("chaos-job-{i}"),
                        retried.clone(),
                        Payload::Experiment(spec),
                    )
                    .expect("submission is fault-free")
            })
            .collect()
    }

    /// Kill the access server and rebuild it from the WAL
    /// ([`Platform::crash_and_recover`]), then re-attach the fault
    /// schedule. Recovery counters go to a throwaway registry, so the
    /// platform's report stays comparable with an uninterrupted run.
    pub(crate) fn crash(&mut self) {
        self.platform
            .crash_and_recover(&self.wal, &Registry::new())
            .expect("recovery from a live WAL never fails");
        self.platform.server.attach_faults(&self.injector);
    }

    /// Drive the queue to quiescence. Faults can trip a node's breaker or
    /// schedule retry backoff, so after the first drain each round runs
    /// `before_round`, idles every node's devices, probes the nodes at
    /// the latest device clock (reboot windows pass, open breakers
    /// half-open) and drains again, for at most [`MAX_ROUNDS`] rounds.
    /// Returns the last round's latest device clock (`ZERO` if none ran).
    pub(crate) fn drive(&mut self, mut before_round: impl FnMut(&mut Scenario)) -> SimTime {
        self.platform.server.drain();
        let mut latest = SimTime::ZERO;
        let mut rounds = 0;
        while self.platform.server.queue_len() > 0 && rounds < MAX_ROUNDS {
            rounds += 1;
            before_round(self);
            latest = self.platform.server.idle_nodes(IDLE);
            self.platform.server.probe_nodes(latest);
            self.platform.server.drain();
        }
        latest
    }
}
