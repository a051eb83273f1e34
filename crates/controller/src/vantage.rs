//! The vantage point controller (§3.2): one Raspberry Pi orchestrating a
//! Monsoon, a relay circuit switch, a WiFi power socket and one or more
//! test devices — exposing the BatteryLab API of Table 1.

use std::collections::BTreeMap;
use std::sync::Arc;

use batterylab_adb::{AdbKey, AdbLink, HostError, TransportKind};
use batterylab_device::{AndroidDevice, PowerSource};
use batterylab_faults::{scoped_site, site, FaultInjector};
use batterylab_mirror::{EncoderConfig, MirrorSession, SessionError};
use batterylab_net::{LinkProfile, VpnClient, VpnError, VpnLocation};
use batterylab_power::{
    CheckpointStream, CurrentSource, GapReport, Monsoon, MonsoonError, PowerSocket, SampleRun,
    SocketError, SocketState, MONSOON_RATE_HZ,
};
use batterylab_relay::{BoardError, ChannelRoute, CircuitSwitch, RelayBoard};
use batterylab_sim::{SimDuration, SimRng, SimTime, UniformSeries};
use batterylab_stats::{Cdf, EnergyAccumulator};
use batterylab_telemetry::{Counter, Histogram, Registry};

use crate::pi::PiModel;

/// Controller faults.
#[derive(Debug)]
pub enum ControllerError {
    /// Unknown device id.
    NoSuchDevice(String),
    /// Power-meter fault.
    Monsoon(MonsoonError),
    /// Relay fault.
    Relay(BoardError),
    /// WiFi socket fault.
    Socket(SocketError),
    /// ADB fault.
    Adb(HostError),
    /// Mirroring fault.
    Mirror(SessionError),
    /// VPN fault.
    Vpn(VpnError),
    /// A measurement is already running.
    MeasurementActive,
    /// No measurement running.
    NoMeasurement,
    /// The requested operation would corrupt a measurement (§3.3).
    Unsafe(String),
    /// A checkpointed measurement's salvaged segments failed verification;
    /// the report carries the exact gap/overlap/corruption found.
    Checkpoint(GapReport),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::NoSuchDevice(id) => write!(f, "no such device {id}"),
            ControllerError::Monsoon(e) => write!(f, "monsoon: {e}"),
            ControllerError::Relay(e) => write!(f, "relay: {e}"),
            ControllerError::Socket(e) => write!(f, "socket: {e}"),
            ControllerError::Adb(e) => write!(f, "adb: {e}"),
            ControllerError::Mirror(e) => write!(f, "mirror: {e}"),
            ControllerError::Vpn(e) => write!(f, "vpn: {e}"),
            ControllerError::MeasurementActive => write!(f, "a measurement is already running"),
            ControllerError::NoMeasurement => write!(f, "no measurement running"),
            ControllerError::Unsafe(m) => write!(f, "unsafe: {m}"),
            ControllerError::Checkpoint(report) => write!(f, "checkpoint: {report}"),
        }
    }
}

impl std::error::Error for ControllerError {}

macro_rules! impl_from {
    ($variant:ident, $err:ty) => {
        impl From<$err> for ControllerError {
            fn from(e: $err) -> Self {
                ControllerError::$variant(e)
            }
        }
    };
}
impl_from!(Monsoon, MonsoonError);
impl_from!(Relay, BoardError);
impl_from!(Socket, SocketError);
impl_from!(Adb, HostError);
impl_from!(Mirror, SessionError);
impl_from!(Vpn, VpnError);

/// Configuration of a vantage point.
#[derive(Clone, Debug)]
pub struct VantageConfig {
    /// DNS-visible name, e.g. `node1` → `node1.batterylab.dev`.
    pub name: String,
    /// The site's uplink to the internet.
    pub uplink: LinkProfile,
    /// The controller's WiFi AP hop to test devices.
    pub wifi_ap: LinkProfile,
    /// Relay channels available.
    pub relay_channels: usize,
}

impl VantageConfig {
    /// The paper's first deployment at Imperial College London.
    pub fn imperial_college() -> Self {
        VantageConfig {
            name: "node1".to_string(),
            uplink: LinkProfile::campus_uplink(),
            wifi_ap: LinkProfile::fast_wifi(),
            relay_channels: 4,
        }
    }
}

struct ActiveMeasurement {
    serial: String,
    started: SimTime,
}

/// Pre-resolved telemetry handles. Counters live under the node-scoped
/// prefix (`node1.controller.*`) so fleet-merged registries keep each
/// node's controller metrics distinguishable; journal events and the
/// clock go through the shared unscoped registry as before.
#[derive(Default)]
struct ControllerTelemetry {
    registry: Registry,
    measurements_started: Counter,
    measurements_completed: Counter,
    measurements_aborted: Counter,
    measurement_us: Histogram,
    adb_commands: Counter,
    socket_retries: Counter,
    vpn_switches: Counter,
}

impl ControllerTelemetry {
    fn bind(registry: &Registry, node: &str) -> Self {
        let scoped = registry.scoped(node);
        ControllerTelemetry {
            measurements_started: scoped.counter("controller.measurements_started"),
            measurements_completed: scoped.counter("controller.measurements_completed"),
            measurements_aborted: scoped.counter("controller.measurements_aborted"),
            measurement_us: scoped.histogram("controller.measurement_us"),
            adb_commands: scoped.counter("controller.adb_commands"),
            socket_retries: scoped.counter("controller.socket_retries"),
            vpn_switches: scoped.counter("controller.vpn_switches"),
            registry: registry.clone(),
        }
    }
}

/// A measurement result handed back through the job workspace.
#[derive(Clone, Debug)]
pub struct MeasurementReport {
    /// Device measured.
    pub serial: String,
    /// Supply voltage during the run.
    pub voltage_v: f64,
    /// Sampling rate used.
    pub rate_hz: f64,
    /// The current samples (mA), every `1 / rate_hz` from the window's start.
    pub samples: UniformSeries,
    /// Streaming aggregates.
    pub energy: EnergyAccumulator,
    /// Measurement window on the device clock.
    pub window: (SimTime, SimTime),
}

impl MeasurementReport {
    /// Discharge over the run, mAh.
    pub fn mah(&self) -> f64 {
        self.energy.mah()
    }

    /// Mean current, mA.
    pub fn mean_ma(&self) -> f64 {
        self.energy.mean_ma()
    }

    /// CDF of the current samples.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_samples(self.samples.values())
    }
}

/// One BatteryLab vantage point.
pub struct VantagePoint {
    config: VantageConfig,
    pi: PiModel,
    monsoon: Monsoon,
    socket: PowerSocket,
    board: RelayBoard,
    switch: Arc<CircuitSwitch>,
    devices: Vec<AndroidDevice>,
    vpn: VpnClient,
    adb_key: AdbKey,
    adb_links: BTreeMap<String, AdbLink<AndroidDevice>>,
    mirrors: BTreeMap<String, MirrorSession>,
    active: Option<ActiveMeasurement>,
    /// Completed measurement windows (serial, from, to) — the periods the
    /// Monsoon-polling load was on the Pi, for historical CPU sampling.
    past_measurements: Vec<(String, SimTime, SimTime)>,
    rng: SimRng,
    telemetry: ControllerTelemetry,
    /// Platform fault plan, cascaded to every subsystem (and to ADB
    /// links / mirror sessions created later) under node-scoped sites.
    faults: FaultInjector,
}

impl VantagePoint {
    /// Bring up a vantage point from `config` with the experiment seed.
    /// It reports into a registry of its own until [`Self::set_telemetry`]
    /// binds it to a shared one.
    pub fn new(config: VantageConfig, rng: SimRng) -> Self {
        let switch = CircuitSwitch::new(config.relay_channels);
        let pins: Vec<usize> = (0..config.relay_channels).map(|i| 17 + i).collect();
        let board = RelayBoard::new(Arc::clone(&switch), pins).expect("valid pin map");
        let vpn = VpnClient::new(config.uplink);
        let mut vp = VantagePoint {
            pi: PiModel::new(rng.derive("pi")),
            monsoon: Monsoon::new(rng.derive("monsoon")),
            socket: PowerSocket::new(),
            board,
            switch,
            devices: Vec::new(),
            vpn,
            adb_key: AdbKey::generate(&format!("{}-controller", config.name), rng.seed()),
            adb_links: BTreeMap::new(),
            mirrors: BTreeMap::new(),
            active: None,
            past_measurements: Vec::new(),
            rng: rng.derive("vantage"),
            telemetry: ControllerTelemetry::default(),
            config,
            faults: FaultInjector::disabled(),
        };
        vp.set_telemetry(&Registry::new());
        vp
    }

    /// Arm every subsystem of this node against `injector`, with fault
    /// sites scoped by node name (`node1.power.socket`, …) so one plan
    /// can target individual nodes of a fleet. ADB links and mirror
    /// sessions created later inherit the injector.
    pub fn attach_faults(&mut self, injector: &FaultInjector) {
        self.faults = injector.clone();
        let name = self.config.name.clone();
        self.socket
            .set_faults(injector, &scoped_site(&name, site::POWER_SOCKET));
        self.monsoon
            .set_faults(injector, &scoped_site(&name, site::POWER_METER));
        self.board
            .set_faults(injector, &scoped_site(&name, site::RELAY_CONTACT));
        self.vpn
            .set_faults(injector, &scoped_site(&name, site::NET_VPN));
        for link in self.adb_links.values_mut() {
            link.set_faults(injector, &scoped_site(&name, site::ADB_TRANSPORT));
        }
        for session in self.mirrors.values_mut() {
            session.set_faults(injector, &scoped_site(&name, site::MIRROR_ENCODER));
        }
    }

    /// Bind this node — monsoon, relay switch, every ADB link and mirror
    /// session included — to a shared registry (fleet aggregation).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = ControllerTelemetry::bind(registry, &self.config.name);
        self.monsoon.set_telemetry(registry);
        self.switch.set_telemetry(registry);
        for link in self.adb_links.values_mut() {
            link.set_telemetry(registry);
        }
        for session in self.mirrors.values_mut() {
            session.set_telemetry(registry);
        }
    }

    /// The registry this node's subsystems report into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The node's "now": its first device's clock (`ZERO` for a node
    /// without devices).
    pub fn now(&self) -> SimTime {
        self.devices
            .first()
            .map_or(SimTime::ZERO, |d| d.with_sim(|s| s.now()))
    }

    /// Idle every device whose clock is behind `t` forward to `t`.
    /// Returns whether any clock advanced.
    pub fn idle_devices_until(&mut self, t: SimTime) -> bool {
        let mut advanced = false;
        for device in &self.devices {
            device.with_sim(|s| {
                let now = s.now();
                if now < t {
                    s.idle(t - now);
                    advanced = true;
                }
            });
        }
        advanced
    }

    /// Idle every device `d` forward: the bench sitting idle. Returns the
    /// latest device clock afterwards (`ZERO` without devices).
    pub fn idle_devices(&mut self, d: SimDuration) -> SimTime {
        self.devices.iter().fold(SimTime::ZERO, |latest, device| {
            device.with_sim(|s| {
                s.idle(d);
                latest.max(s.now())
            })
        })
    }

    /// Release `device_id`'s history before the earliest instant a live
    /// reader can still ask for: `from`, or where a running mirror
    /// session reads next if that is earlier. The device's three traces
    /// are released (DESIGN §4d) and its measurement windows that end by
    /// then are dropped, so both hold about one job's worth.
    pub fn release_history(&mut self, device_id: &str, from: SimTime) {
        let floor = self
            .mirror_read_from(device_id)
            .map_or(from, |t| t.min(from));
        if let Ok((_, device)) = self.device(device_id) {
            device.with_sim(|s| s.release_traces_before(floor));
        }
        self.past_measurements
            .retain(|(serial, _, to)| serial != device_id || *to > floor);
    }

    /// Measurement windows (completed or aborted) the node still keeps
    /// for historical CPU sampling.
    pub fn measurement_windows(&self) -> usize {
        self.past_measurements.len()
    }

    /// Attach a device to the next free relay channel and wire it to the
    /// WiFi AP. Returns the channel index.
    pub fn add_device(&mut self, device: AndroidDevice) -> usize {
        let channel = self.devices.len();
        assert!(
            channel < self.config.relay_channels,
            "no free relay channel"
        );
        self.switch
            .attach(channel, Arc::new(device.clone()))
            .expect("channel in range");
        device.with_sim(|s| s.set_network(self.effective_device_path()));
        self.devices.push(device);
        channel
    }

    fn device(&self, serial: &str) -> Result<(usize, &AndroidDevice), ControllerError> {
        self.devices
            .iter()
            .enumerate()
            .find(|(_, d)| d.serial() == serial)
            .ok_or_else(|| ControllerError::NoSuchDevice(serial.to_string()))
    }

    /// The network path devices currently see (WiFi AP chained with the
    /// uplink and any VPN tunnel).
    pub fn effective_device_path(&self) -> LinkProfile {
        self.config.wifi_ap.chain(&self.vpn.effective_path())
    }

    // -- Table 1 API ---------------------------------------------------------

    /// `list_devices` — ADB ids of test devices.
    pub fn list_devices(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.serial()).collect()
    }

    /// `device_mirroring` — toggle mirroring for `device_id`. Returns the
    /// new state (true = active).
    pub fn device_mirroring(&mut self, device_id: &str) -> Result<bool, ControllerError> {
        let (_, device) = self.device(device_id)?;
        let device = device.clone();
        if let Some(mut session) = self.mirrors.remove(device_id) {
            let _ = session.pump();
            session.stop()?;
            self.pi.clear_source(&format!("mirror/{device_id}"));
            self.pi.clear_source(&format!("vnc/{device_id}"));
            return Ok(false);
        }
        let mut session = MirrorSession::new(device, EncoderConfig::default(), "batterylab");
        session.set_telemetry(&self.telemetry.registry);
        session.set_faults(
            &self.faults,
            &scoped_site(&self.config.name, site::MIRROR_ENCODER),
        );
        session.start()?;
        // Memory/base-CPU of scrcpy receiver + tigervnc + noVNC (the ≈6 %
        // memory the paper measures); the change-driven CPU is added at
        // sampling time.
        self.pi
            .set_source(&format!("mirror/{device_id}"), 0.0, 48.0);
        self.pi.set_source(&format!("vnc/{device_id}"), 0.0, 17.0);
        self.mirrors.insert(device_id.to_string(), session);
        Ok(true)
    }

    /// Whether `device_id` is being mirrored.
    pub fn is_mirroring(&self, device_id: &str) -> bool {
        self.mirrors.contains_key(device_id)
    }

    /// The device instant `device_id`'s mirror session reads from next,
    /// if one is running.
    pub fn mirror_read_from(&self, device_id: &str) -> Option<SimTime> {
        self.mirrors.get(device_id).map(MirrorSession::read_from)
    }

    /// Attach a viewer (noVNC browser tab) to a running mirror session.
    pub fn attach_viewer(
        &mut self,
        device_id: &str,
        password: &str,
    ) -> Result<(), ControllerError> {
        let session = self
            .mirrors
            .get_mut(device_id)
            .ok_or_else(|| ControllerError::NoSuchDevice(device_id.to_string()))?;
        session.attach_viewer(password)?;
        Ok(())
    }

    /// `power_monitor` — toggle the Monsoon's mains power through the WiFi
    /// socket. Returns the new socket state.
    pub fn power_monitor(&mut self) -> Result<SocketState, ControllerError> {
        let now = self.now();
        let target = !self.socket.is_on();
        // The socket occasionally drops a command; retry like the real
        // controller scripts do.
        let mut result = self.socket.togglex(now, target);
        for _ in 0..3 {
            if result.is_ok() {
                break;
            }
            self.telemetry.socket_retries.inc();
            result = self.socket.togglex(now, target);
        }
        let state = result?;
        self.monsoon.set_powered(state == SocketState::On);
        Ok(state)
    }

    /// `set_voltage` — program the Monsoon output.
    pub fn set_voltage(&mut self, volts: f64) -> Result<(), ControllerError> {
        Ok(self.monsoon.set_voltage(volts)?)
    }

    /// `batt_switch` — toggle `device_id` between its battery and the
    /// Monsoon bypass.
    pub fn batt_switch(&mut self, device_id: &str) -> Result<ChannelRoute, ControllerError> {
        let (channel, device) = self.device(device_id)?;
        let device = device.clone();
        let now = device.with_sim(|s| s.now());
        let route = self.switch.route(channel).map_err(BoardError::Switch)?;
        match route {
            ChannelRoute::Battery => {
                self.board.bypass(channel, now)?;
                device.with_sim(|s| s.set_power_source(PowerSource::MonsoonBypass));
                Ok(ChannelRoute::Bypass)
            }
            ChannelRoute::Bypass => {
                self.board.battery(channel, now)?;
                device.with_sim(|s| s.set_power_source(PowerSource::Battery));
                Ok(ChannelRoute::Battery)
            }
        }
    }

    /// `start_monitor` — begin a battery measurement of `device_id`.
    ///
    /// Preconditions (each a real bench mistake BatteryLab guards
    /// against): meter powered and Vout enabled, device routed to the
    /// bypass, and no USB bus power attached.
    pub fn start_monitor(&mut self, device_id: &str) -> Result<(), ControllerError> {
        if self.active.is_some() {
            return Err(ControllerError::MeasurementActive);
        }
        let (channel, device) = self.device(device_id)?;
        let device = device.clone();
        if !self.monsoon.is_powered() {
            return Err(ControllerError::Monsoon(MonsoonError::PoweredOff));
        }
        if device.with_sim(|s| s.state().usb_connected) {
            return Err(ControllerError::Unsafe(
                "USB bus power attached: readings would be corrupted (§3.3); \
                 power the port down with uhubctl first"
                    .to_string(),
            ));
        }
        if self.switch.route(channel).map_err(BoardError::Switch)? != ChannelRoute::Bypass {
            return Err(ControllerError::Unsafe(
                "device not on battery bypass: engage batt_switch first".to_string(),
            ));
        }
        self.monsoon.enable_vout()?;
        // Monsoon polling at the highest frequency: the constant 25 % the
        // paper observes on the controller (Fig. 5).
        self.pi.set_source("monsoon-poll", 0.22, 30.0);
        let started = device.with_sim(|s| s.now());
        self.telemetry.measurements_started.inc();
        self.telemetry
            .registry
            .clock()
            .advance_to(started.as_micros());
        self.telemetry
            .registry
            .event("controller.measurement_started", device_id);
        self.active = Some(ActiveMeasurement {
            serial: device_id.to_string(),
            started,
        });
        Ok(())
    }

    /// `stop_monitor` — end the measurement and return the report,
    /// sampling at the Monsoon's native 5 kHz.
    pub fn stop_monitor(&mut self) -> Result<MeasurementReport, ControllerError> {
        self.stop_monitor_at_rate(MONSOON_RATE_HZ)
    }

    /// As [`Self::stop_monitor`] with a decimated rate for long runs
    /// (streaming mode keeps Pi memory bounded).
    ///
    /// A meter error (brownout, protection trip) leaves the measurement
    /// active, so the caller can retry the stop or abort the window.
    pub fn stop_monitor_at_rate(
        &mut self,
        rate_hz: f64,
    ) -> Result<MeasurementReport, ControllerError> {
        self.stop_with(rate_hz, |meter, load, start, duration| {
            meter.sample_run_at_rate(load, start, duration, rate_hz)
        })
    }

    /// As [`Self::stop_monitor_at_rate`] but crash-resumable: completed
    /// sample segments are sealed into `stream` (which lives on durable
    /// storage) as they are produced. If a previous attempt at this
    /// measurement died mid-sampling, passing its surviving stream
    /// salvages the sealed prefix — verified first — and samples only
    /// the remainder; the report is bit-identical to the uninterrupted
    /// run's, and to [`Self::stop_monitor_at_rate`]'s on a fresh stream.
    ///
    /// A salvaged prefix that fails verification (gap, overlap, CRC
    /// mismatch, inconsistent aggregates, plan mismatch) returns
    /// [`ControllerError::Checkpoint`] and leaves the measurement
    /// active, so the caller can retry with a fresh stream instead of
    /// silently integrating a bad splice.
    pub fn stop_monitor_checkpointed(
        &mut self,
        rate_hz: f64,
        stream: &mut CheckpointStream,
    ) -> Result<MeasurementReport, ControllerError> {
        self.stop_with(rate_hz, |meter, load, start, duration| {
            meter.sample_run_checkpointed(load, start, duration, rate_hz, stream)
        })
    }

    /// The tail of both stop paths: sample the window through `sample`
    /// and close the measurement. Any error leaves it active — the
    /// device-side window is intact, only the sampling failed.
    fn stop_with(
        &mut self,
        rate_hz: f64,
        sample: impl FnOnce(
            &mut Monsoon,
            &dyn CurrentSource,
            SimTime,
            f64,
        ) -> Result<SampleRun, MonsoonError>,
    ) -> Result<MeasurementReport, ControllerError> {
        let active = self.active.as_ref().ok_or(ControllerError::NoMeasurement)?;
        let (serial, started) = (active.serial.clone(), active.started);
        let end = self.device(&serial)?.1.with_sim(|s| s.now());
        let duration = (end - started).as_secs_f64();
        if duration <= 0.0 {
            return Err(ControllerError::Unsafe(
                "measurement window is empty: run the workload between start and stop".to_string(),
            ));
        }
        let meter_side = self.switch.meter_side();
        let run =
            sample(&mut self.monsoon, &meter_side, started, duration).map_err(|e| match e {
                MonsoonError::Checkpoint(report) => ControllerError::Checkpoint(report),
                e => ControllerError::Monsoon(e),
            })?;
        self.active = None;
        self.pi.clear_source("monsoon-poll");
        self.past_measurements.push((serial.clone(), started, end));
        self.telemetry.measurements_completed.inc();
        self.telemetry
            .measurement_us
            .record((end - started).as_micros());
        self.telemetry.registry.clock().advance_to(end.as_micros());
        self.telemetry
            .registry
            .event("controller.measurement_completed", &serial);
        Ok(MeasurementReport {
            serial,
            voltage_v: run.voltage_v,
            rate_hz,
            samples: run.samples,
            energy: run.energy,
            window: (started, end),
        })
    }

    /// Abort an active measurement without sampling (job failed mid-run).
    /// The polling window is still recorded — the Pi did the work.
    pub fn abort_monitor(&mut self) -> Result<(), ControllerError> {
        let active = self.active.take().ok_or(ControllerError::NoMeasurement)?;
        self.pi.clear_source("monsoon-poll");
        if let Ok((_, device)) = self.device(&active.serial) {
            let end = device.with_sim(|s| s.now());
            self.past_measurements
                .push((active.serial.clone(), active.started, end));
        }
        self.telemetry.measurements_aborted.inc();
        self.telemetry
            .registry
            .event("controller.measurement_aborted", &active.serial);
        Ok(())
    }

    /// Whether a measurement is currently running.
    pub fn measurement_active(&self) -> bool {
        self.active.is_some()
    }

    /// `execute_adb` — run an ADB command against `device_id` over the
    /// WiFi automation channel (creating it on first use). A command that
    /// fails with a transport error drops the link, so the next call
    /// reconnects with faults and telemetry bound afresh.
    pub fn execute_adb(
        &mut self,
        device_id: &str,
        command: &str,
    ) -> Result<String, ControllerError> {
        let (_, device) = self.device(device_id)?;
        let device = device.clone();
        let now = device.with_sim(|s| s.now());
        let key = self.adb_key.clone();
        self.telemetry.adb_commands.inc();
        let adb_site = scoped_site(&self.config.name, site::ADB_TRANSPORT);
        let link = match self.adb_links.entry(device_id.to_string()) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                let mut link = AdbLink::new(device, TransportKind::WiFi, key);
                link.set_telemetry(&self.telemetry.registry);
                link.set_faults(&self.faults, &adb_site);
                link.connect()?;
                e.insert(link)
            }
        };
        // The link has no clock of its own; feed it device sim time so
        // windowed transport faults line up with the experiment.
        link.sync_fault_clock(now);
        let result = link.shell(command);
        if let Err(HostError::Transport(_)) = result {
            self.adb_links.remove(device_id);
        }
        Ok(result?)
    }

    // -- beyond Table 1: management the paper describes in prose -------------

    /// uhubctl-style USB port power control (§3.2): powering a port feeds
    /// the device (corrupting measurements) — so it is refused while a
    /// measurement of that device runs.
    pub fn usb_port_power(&mut self, device_id: &str, on: bool) -> Result<(), ControllerError> {
        if on {
            if let Some(active) = &self.active {
                if active.serial == device_id {
                    return Err(ControllerError::Unsafe(
                        "cannot power USB during an active measurement".to_string(),
                    ));
                }
            }
        }
        let (_, device) = self.device(device_id)?;
        device.with_sim(|s| s.set_usb_connected(on));
        Ok(())
    }

    /// Bring up a VPN tunnel (the §4.3 location emulation) and repoint
    /// every device's network path through it.
    pub fn connect_vpn(&mut self, location: VpnLocation) -> Result<(), ControllerError> {
        let now = self.now();
        let _ = self.vpn.disconnect();
        if let Err(e) = self.vpn.connect_at(location, now) {
            // The tunnel went down before the handshake finished; the
            // devices are on the raw uplink until a retry succeeds.
            self.repoint_devices();
            return Err(e.into());
        }
        self.telemetry.vpn_switches.inc();
        self.telemetry
            .registry
            .event("controller.vpn_switch", format!("{location:?}"));
        self.repoint_devices();
        Ok(())
    }

    /// Tear the tunnel down.
    pub fn disconnect_vpn(&mut self) -> Result<(), ControllerError> {
        self.vpn.disconnect()?;
        self.telemetry.vpn_switches.inc();
        self.telemetry
            .registry
            .event("controller.vpn_switch", "off");
        self.repoint_devices();
        Ok(())
    }

    /// Active VPN exit, if any.
    pub fn vpn_location(&self) -> Option<VpnLocation> {
        self.vpn.active()
    }

    fn repoint_devices(&mut self) {
        let path = self.effective_device_path();
        for d in &self.devices {
            d.with_sim(|s| s.set_network(path));
        }
    }

    /// Pump mirroring streams (harvest encoder output into VNC frames).
    pub fn pump_mirrors(&mut self) -> Result<u64, ControllerError> {
        let mut total = 0;
        for session in self.mirrors.values_mut() {
            total += session.pump()?;
        }
        Ok(total)
    }

    /// Upload traffic generated by mirroring so far (wire bytes).
    pub fn mirror_upload_bytes(&self) -> u64 {
        self.mirrors.values().map(|s| s.uploaded_bytes()).sum()
    }

    /// Controller CPU samples over `[from, to)` at `hz`, for Fig. 5: the
    /// Pi's static sources plus the mirroring stack's change-driven load.
    pub fn controller_cpu_samples(
        &mut self,
        device_id: &str,
        from: SimTime,
        to: SimTime,
        hz: f64,
    ) -> Result<Vec<f64>, ControllerError> {
        let (_, device) = self.device(device_id)?;
        let device = device.clone();
        let mirroring = self.mirrors.contains_key(device_id);
        let polling_now = self.pi.has_source("monsoon-poll");
        let n = ((to - from).as_secs_f64() * hz).floor() as u64;
        let mut samples = Vec::with_capacity(n as usize);
        for i in 0..n {
            let t = from + SimDuration::from_secs_f64(i as f64 / hz);
            let mut cpu = self.pi.sample_cpu();
            // Monsoon polling load applies inside any measurement window
            // covering t (live, or completed before this sampling pass).
            let was_polling = self
                .past_measurements
                .iter()
                .any(|(_, a, b)| t >= *a && t < *b);
            if was_polling && !polling_now {
                cpu += 0.22;
            }
            if mirroring {
                let change = device.with_sim(|s| s.frame_change_trace().at(t));
                let burst = self.rng.normal_clamped(1.0, 0.12, 0.7, 1.5);
                cpu += MirrorSession::controller_load(change) * burst;
            }
            samples.push(cpu.min(1.0));
        }
        Ok(samples)
    }

    /// Pi memory utilisation fraction (the §4.2 "<20 % of 1 GB").
    pub fn memory_fraction(&self) -> f64 {
        self.pi.memory_fraction()
    }

    /// The controller's ADB key (vantage-point enrolment shares its
    /// fingerprint with devices).
    pub fn adb_key(&self) -> &AdbKey {
        &self.adb_key
    }

    /// Direct Pi access (benchmarks).
    pub fn pi_mut(&mut self) -> &mut PiModel {
        &mut self.pi
    }

    /// Direct WiFi-socket access (fault injection in tests).
    pub fn socket_mut(&mut self) -> &mut PowerSocket {
        &mut self.socket
    }

    /// Read-only state of the meter's WiFi socket — what a maintenance
    /// sweep needs to know without actuating anything.
    pub fn meter_socket_state(&self) -> SocketState {
        self.socket.state()
    }

    /// A device handle by serial.
    pub fn device_handle(&self, serial: &str) -> Result<AndroidDevice, ControllerError> {
        Ok(self.device(serial)?.1.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;

    fn vantage(seed: u64) -> (VantagePoint, String) {
        let rng = SimRng::new(seed);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let device = boot_j7_duo(&rng, "j7-0001");
        vp.add_device(device);
        (vp, "j7-0001".to_string())
    }

    #[test]
    fn list_devices_reports_serials() {
        let (vp, serial) = vantage(1);
        assert_eq!(vp.list_devices(), vec![serial]);
    }

    #[test]
    fn measurement_happy_path() {
        let (mut vp, serial) = vantage(2);
        vp.power_monitor().unwrap();
        vp.set_voltage(4.0).unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        let device = vp.device_handle(&serial).unwrap();
        device.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(10));
        });
        let report = vp.stop_monitor_at_rate(500.0).unwrap();
        assert_eq!(report.serial, serial);
        assert_eq!(report.samples.len(), 5000);
        let median = report.cdf().median();
        assert!((140.0..185.0).contains(&median), "median {median} mA");
        assert!(report.mah() > 0.0);
    }

    #[test]
    fn start_monitor_requires_power_and_bypass() {
        let (mut vp, serial) = vantage(3);
        // No power.
        assert!(matches!(
            vp.start_monitor(&serial),
            Err(ControllerError::Monsoon(MonsoonError::PoweredOff))
        ));
        vp.power_monitor().unwrap();
        // No bypass.
        assert!(matches!(
            vp.start_monitor(&serial),
            Err(ControllerError::Unsafe(_))
        ));
        vp.batt_switch(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
    }

    #[test]
    fn usb_guard_blocks_corrupt_measurements() {
        let (mut vp, serial) = vantage(4);
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.usb_port_power(&serial, true).unwrap();
        assert!(matches!(
            vp.start_monitor(&serial),
            Err(ControllerError::Unsafe(_))
        ));
        vp.usb_port_power(&serial, false).unwrap();
        vp.start_monitor(&serial).unwrap();
        // And the reverse: can't power USB mid-measurement.
        assert!(matches!(
            vp.usb_port_power(&serial, true),
            Err(ControllerError::Unsafe(_))
        ));
    }

    #[test]
    fn only_one_measurement_at_a_time() {
        let (mut vp, serial) = vantage(5);
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        assert!(matches!(
            vp.start_monitor(&serial),
            Err(ControllerError::MeasurementActive)
        ));
    }

    #[test]
    fn batt_switch_toggles_route_and_power_source() {
        let (mut vp, serial) = vantage(6);
        let device = vp.device_handle(&serial).unwrap();
        assert_eq!(vp.batt_switch(&serial).unwrap(), ChannelRoute::Bypass);
        assert_eq!(
            device.with_sim(|s| s.state().power_source),
            PowerSource::MonsoonBypass
        );
        assert_eq!(vp.batt_switch(&serial).unwrap(), ChannelRoute::Battery);
        assert_eq!(
            device.with_sim(|s| s.state().power_source),
            PowerSource::Battery
        );
    }

    #[test]
    fn execute_adb_round_trip() {
        let (mut vp, serial) = vantage(7);
        let out = vp.execute_adb(&serial, "echo batterylab").unwrap();
        assert_eq!(out, "batterylab\n");
        // Second call reuses the link.
        let out2 = vp
            .execute_adb(&serial, "getprop ro.build.version.sdk")
            .unwrap();
        assert_eq!(out2.trim(), "26");
    }

    #[test]
    fn mirroring_toggle_and_memory() {
        let (mut vp, serial) = vantage(8);
        let base_mem = vp.memory_fraction();
        assert!(vp.device_mirroring(&serial).unwrap());
        assert!(vp.is_mirroring(&serial));
        let mirror_mem = vp.memory_fraction();
        // ≈6 % extra memory (paper), still below 20 % total.
        let delta = mirror_mem - base_mem;
        assert!((0.03..0.10).contains(&delta), "mirror memory delta {delta}");
        assert!(mirror_mem < 0.20);
        assert!(!vp.device_mirroring(&serial).unwrap());
        assert!((vp.memory_fraction() - base_mem).abs() < 1e-9);
    }

    #[test]
    fn vpn_repoints_device_paths() {
        let (mut vp, serial) = vantage(9);
        let device = vp.device_handle(&serial).unwrap();
        let before = device.with_sim(|s| *s.network());
        vp.connect_vpn(VpnLocation::Japan).unwrap();
        let tunnelled = device.with_sim(|s| *s.network());
        assert!(tunnelled.rtt_ms > before.rtt_ms + 200.0);
        vp.disconnect_vpn().unwrap();
        let after = device.with_sim(|s| *s.network());
        assert!((after.rtt_ms - before.rtt_ms).abs() < 1e-9);
    }

    #[test]
    fn telemetry_spans_every_subsystem_family() {
        let (mut vp, serial) = vantage(11);
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.execute_adb(&serial, "echo warm").unwrap();
        vp.device_mirroring(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        let device = vp.device_handle(&serial).unwrap();
        device.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(5));
        });
        vp.pump_mirrors().unwrap();
        let report_run = vp.stop_monitor_at_rate(500.0).unwrap();
        vp.connect_vpn(VpnLocation::Japan).unwrap();

        let report = vp.telemetry().snapshot();
        assert_eq!(report.counter("node1.controller.measurements_started"), 1);
        assert_eq!(report.counter("node1.controller.measurements_completed"), 1);
        assert_eq!(report.counter("node1.controller.adb_commands"), 1);
        assert_eq!(report.counter("node1.controller.vpn_switches"), 1);
        assert_eq!(
            report.counter("power.samples"),
            report_run.samples.len() as u64
        );
        assert!(report.counter("relay.actuations") >= 1);
        assert!(report.counter("adb.frames_tx") > 0);
        assert!(report.counter("mirror.encoded_bytes") > 0);
        // One registry, five subsystem families reporting into it — the
        // controller's under its node-scoped prefix.
        let families = report.families();
        for family in ["node1", "power", "relay", "adb", "mirror"] {
            assert!(
                families.iter().any(|f| f == family),
                "missing family {family}"
            );
        }
        assert!(report
            .events
            .iter()
            .any(|e| e.label == "controller.measurement_started"));
    }

    #[test]
    fn attach_faults_scopes_sites_by_node_name() {
        use batterylab_faults::{FaultKind, FaultPlan};
        let (mut vp, serial) = vantage(13);
        // Faults aimed at node1's socket and ADB transport; a spec for
        // some other node must not fire here.
        let plan = FaultPlan::new()
            .next_n("node1.power.socket", FaultKind::SocketUnreachable, 1)
            .next_n("node1.adb.transport", FaultKind::TransportReset, 1)
            .next_n("node9.power.socket", FaultKind::SocketUnreachable, 5);
        let injector = FaultInjector::new(&plan, 7);
        injector.set_telemetry(vp.telemetry());
        vp.attach_faults(&injector);
        // power_monitor retries through the one injected socket failure.
        vp.power_monitor().unwrap();
        // First ADB exec trips the transport reset and drops the link.
        assert!(matches!(
            vp.execute_adb(&serial, "echo hi"),
            Err(ControllerError::Adb(_))
        ));
        // The next command reconnects instead of failing on a dead link.
        assert_eq!(vp.execute_adb(&serial, "echo back").unwrap(), "back\n");
        let report = vp.telemetry().snapshot();
        assert_eq!(report.counter("node1.controller.socket_retries"), 1);
        // Only node1's two faults fired; node9's never will.
        assert_eq!(injector.injected(), 2);
        assert!(report
            .events
            .iter()
            .any(|e| e.label == "fault.injected" && e.detail.contains("node1.adb.transport")));
    }

    #[test]
    fn meter_socket_state_is_read_only() {
        let (mut vp, _) = vantage(14);
        let before = vp.socket_mut().toggles();
        assert_eq!(vp.meter_socket_state(), SocketState::Off);
        vp.power_monitor().unwrap();
        assert_eq!(vp.meter_socket_state(), SocketState::On);
        // The query itself never actuated the socket.
        assert_eq!(vp.socket_mut().toggles(), before + 1);
    }

    #[test]
    fn aborted_measurements_are_counted() {
        let (mut vp, serial) = vantage(12);
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        vp.abort_monitor().unwrap();
        let report = vp.telemetry().snapshot();
        assert_eq!(report.counter("node1.controller.measurements_started"), 1);
        assert_eq!(report.counter("node1.controller.measurements_aborted"), 1);
        assert_eq!(report.counter("node1.controller.measurements_completed"), 0);
    }

    #[test]
    fn checkpointed_stop_resumes_bit_identically() {
        fn measured_vantage(seed: u64) -> (VantagePoint, String) {
            let (mut vp, serial) = vantage(seed);
            vp.power_monitor().unwrap();
            vp.set_voltage(4.0).unwrap();
            vp.batt_switch(&serial).unwrap();
            vp.start_monitor(&serial).unwrap();
            let device = vp.device_handle(&serial).unwrap();
            device.with_sim(|s| {
                s.set_screen(true);
                s.play_video(SimDuration::from_secs(10));
            });
            (vp, serial)
        }

        // Uninterrupted checkpointed run.
        let (mut vp, _) = measured_vantage(41);
        let mut full_stream = CheckpointStream::new(250);
        let full = vp
            .stop_monitor_checkpointed(500.0, &mut full_stream)
            .unwrap();

        // Crash mid-sampling: only the first 7 sealed segments survive.
        let (mut vp2, _) = measured_vantage(41);
        let mut partial = CheckpointStream::new(250);
        let _ = vp2.stop_monitor_checkpointed(500.0, &mut partial).unwrap();
        partial.segments.truncate(7);
        // The node restarts the measurement window identically and
        // resumes from the salvaged stream.
        let (mut vp3, _) = measured_vantage(41);
        let resumed = vp3.stop_monitor_checkpointed(500.0, &mut partial).unwrap();
        assert_eq!(full.samples.values(), resumed.samples.values());
        assert_eq!(full.mah().to_bits(), resumed.mah().to_bits());
        assert_eq!(full.energy.samples(), resumed.energy.samples());

        // A corrupted salvage is rejected and the measurement survives.
        let (mut vp4, _) = measured_vantage(41);
        let mut bad = CheckpointStream::new(250);
        let _ = vp4.stop_monitor_checkpointed(500.0, &mut bad).unwrap();
        bad.segments.truncate(7);
        bad.segments[3].samples[0] += 1.0;
        let (mut vp5, _) = measured_vantage(41);
        match vp5.stop_monitor_checkpointed(500.0, &mut bad) {
            Err(ControllerError::Checkpoint(report)) => {
                assert_eq!(report.segment, 3);
            }
            other => panic!("expected checkpoint rejection, got {other:?}"),
        }
        assert!(vp5.measurement_active(), "measurement must stay active");
        let mut fresh = CheckpointStream::new(250);
        let retried = vp5.stop_monitor_checkpointed(500.0, &mut fresh).unwrap();
        assert_eq!(full.samples.values(), retried.samples.values());
    }

    #[test]
    fn controller_cpu_with_and_without_mirroring() {
        let (mut vp, serial) = vantage(10);
        vp.power_monitor().unwrap();
        vp.batt_switch(&serial).unwrap();
        let device = vp.device_handle(&serial).unwrap();

        // Without mirroring: constant ≈25 % while measuring.
        vp.start_monitor(&serial).unwrap();
        device.with_sim(|s| {
            s.set_screen(true);
            s.run_activity(SimDuration::from_secs(60), 0.2, 0.5);
        });
        let t0 = device.with_sim(|s| s.now()) - SimDuration::from_secs(60);
        let t1 = device.with_sim(|s| s.now());
        let plain = vp.controller_cpu_samples(&serial, t0, t1, 1.0).unwrap();
        let _ = vp.stop_monitor_at_rate(100.0).unwrap();
        let plain_median = Cdf::from_samples(&plain).median();
        assert!(
            (0.18..0.33).contains(&plain_median),
            "median {plain_median}, paper ≈0.25"
        );

        // With mirroring: median ≈75 %, ≈10 % above 95 %.
        vp.device_mirroring(&serial).unwrap();
        vp.start_monitor(&serial).unwrap();
        device.with_sim(|s| s.run_activity(SimDuration::from_secs(60), 0.2, 0.5));
        let t2 = device.with_sim(|s| s.now()) - SimDuration::from_secs(60);
        let t3 = device.with_sim(|s| s.now());
        let mirrored = vp.controller_cpu_samples(&serial, t2, t3, 1.0).unwrap();
        let _ = vp.stop_monitor_at_rate(100.0).unwrap();
        let cdf = Cdf::from_samples(&mirrored);
        assert!(
            (0.60..0.90).contains(&cdf.median()),
            "median {}",
            cdf.median()
        );
        let above95 = cdf.fraction_above(0.95);
        assert!((0.02..0.30).contains(&above95), "P(load>95%) = {above95}");
    }
}
