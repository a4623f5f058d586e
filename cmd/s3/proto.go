package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/federation"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

// runProto runs the S³ prototype: a WLAN controller speaking the framed
// binary protocol over TCP, either as a standalone server, a
// self-contained demo that also spins up AP agents and stations, a
// client that loads a running controller (-drive), or one replica of a
// federated cluster:
//
//	s3 proto -listen 127.0.0.1:7788 -policy s3     # standalone controller
//	s3 proto -policy s3-live -refresh-every 5s     # learn sociality live
//	s3 proto -demo                                 # end-to-end demo
//	s3 proto -journal /var/lib/s3/journal          # crash-safe state
//	s3 proto -drive 127.0.0.1:7788 -drive-hold 30s # load a running controller
//	s3 proto -journal dir -recover-check 8         # assert recovery (CI)
//	s3 proto -pprof localhost:6060                 # pprof + Prometheus /metrics
//	s3 proto -flight-dir /var/lib/s3/flight        # always-on flight recorder
//	s3 proto -cluster /srv/s3 -node-id alpha -peers alpha,beta,gamma
//	                                               # one replica of a federated cluster
//	s3 proto -fed-status /srv/s3                   # per-group lease status (JSON)
//	s3 proto -max-conns 256 -assoc-rate 500        # admission control: shed excess with MsgBusy
//	s3 proto -cluster ... -breaker-failures 5 -breaker-cooldown 1s
//	                                               # relay circuit breaker budget/cooldown
//
// With -cluster the controller becomes one replica of an N-node
// federation jointly owning the AP space (internal/federation): AP and
// user IDs hash onto federation groups, each group has one owner at a
// time (arbitrated through lease files under the shared -cluster root),
// every replica relays traffic it does not own to the owner, followers
// mirror each group's journal in real time, and an expired lease fails
// the group over to a caught-up follower within one -lease-ttl. The
// -fsync and -checkpoint-every flags govern the per-group journals;
// -ownership overrides the round-robin home map derived from -peers.
//
// With -journal the controller journals every domain mutation and
// checkpoints its state every -checkpoint-every records, and not before
// the log since the last checkpoint outweighs it; restarted on the same
// directory it resumes with believed loads, assignments and the θ-graph
// intact (internal/journal). -fsync picks the durability trade-off.
//
// With -flight-dir a background flight recorder (internal/obs/flight)
// delta-encodes periodic snapshots of the whole metric registry into a
// bounded on-disk ring that survives kill -9; decode it with s3 diag.
// See docs/OBSERVABILITY.md for the full metric catalog.
//
// The s3-live policy runs the incremental social-state engine
// (internal/society/incremental) in the control loop: the controller's
// association events feed the engine, the engine publishes immutable θ
// snapshots on a refresh tick, and the S³ selector reads them lock-free.
// The type prior is seeded from a batch-trained model; P(L|E) is learned
// live from the deployment's own co-leavings.
func runProto(args []string, out io.Writer) (err error) {
	fs := newFlagSet("proto")
	rt := newRuntimeFlags(fs)
	cfg := newProtoConfig(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	stop, err := rt.start(out)
	if err != nil {
		return err
	}
	defer stop(&err)

	switch {
	case cfg.FedStatus != "":
		return runFedStatus(cfg.FedStatus, out)
	case cfg.Drive != "":
		return runDrive(cfg, out)
	}

	selector, engine, err := buildSelector(cfg.Policy, cfg.RefreshEvents)
	if err != nil {
		return err
	}
	var opts []protocol.ControllerOption
	if cfg.Admission.MaxConns > 0 || cfg.Admission.AssocRate > 0 {
		opts = append(opts, protocol.WithAdmission(cfg.Admission))
	}
	if cfg.Verbose {
		opts = append(opts, protocol.WithLogger(log.New(out, "controller: ", log.Ltime)))
	}
	if engine != nil {
		opts = append(opts,
			protocol.WithObserver(engine),
			protocol.WithRefresher(func() { engine.Refresh() }, cfg.RefreshEvery))
	}
	if cfg.Cluster != "" {
		return runCluster(cfg, selector, opts, out)
	}
	if cfg.Journal != "" {
		opts = append(opts, protocol.WithJournal(cfg.Journal, cfg.journalOptions()))
	}

	ctl, err := protocol.NewController(selector, opts...)
	if err != nil {
		return err
	}
	if cfg.RecoverCheck >= 0 {
		rec := ctl.Recovery()
		writeRecovery(out, rec)
		if err := ctl.Close(); err != nil {
			return err
		}
		if rec.Assignments != cfg.RecoverCheck {
			return fmt.Errorf("recover-check: want %d recovered assignments, got %d",
				cfg.RecoverCheck, rec.Assignments)
		}
		fmt.Fprintf(out, "recover-check ok: %d assignments\n", rec.Assignments)
		return nil
	}
	defer ctl.Close()
	addr, err := ctl.Listen(cfg.Listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "controller (%s policy) listening on %s\n", selector.Name(), addr)
	if rec := ctl.Recovery(); rec != nil {
		writeRecovery(out, rec)
	}

	if cfg.Demo {
		if err := runDemo(ctl, addr, out); err != nil {
			return err
		}
		if engine != nil {
			engine.Refresh()
			s := engine.Snapshot()
			fmt.Fprintf(out, "\nlive social state: snapshot #%d, %d users, %d edges, %d components\n",
				s.Seq, s.Users, s.Edges, s.NumComponents())
			writeHealth(out)
		}
		return nil
	}

	// Standalone: serve until interrupted or terminated. Close (deferred)
	// drains peers, takes a final checkpoint and flushes the journal, so
	// both SIGINT and SIGTERM are clean shutdowns.
	awaitSignal(out)
	return nil
}

// protoConfig is one prototype run, filled from the flags. Validate
// refuses conflicting flags before anything starts.
type protoConfig struct {
	Listen, Policy  string
	RefreshEvery    time.Duration
	RefreshEvents   int
	Demo, Verbose   bool
	Admission       protocol.Admission
	BreakerFailures int
	BreakerCooldown time.Duration

	Journal         string
	Fsync           journal.FsyncPolicy
	CheckpointEvery int
	RecoverCheck    int

	Drive                   string
	DriveAPs, DriveStations int
	DriveHold               time.Duration

	Cluster, NodeID, Peers, Ownership string
	FedGroups                         int
	LeaseTTL, ClusterHold             time.Duration
	FedStatus                         string

	own *federation.Ownership // resolved by Validate under -cluster
}

func newProtoConfig(fs *flag.FlagSet) *protoConfig {
	c := &protoConfig{}
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:0", "controller listen address")
	fs.StringVar(&c.Policy, "policy", "s3", "association policy: s3, s3-live or llf")
	fs.DurationVar(&c.RefreshEvery, "refresh-every", 5*time.Second, "s3-live: periodic snapshot refresh interval")
	fs.IntVar(&c.RefreshEvents, "refresh-events", 256, "s3-live: also refresh after this many association events (0 = periodic only)")
	fs.BoolVar(&c.Demo, "demo", false, "run the self-contained demo (controller + APs + stations)")
	fs.BoolVar(&c.Verbose, "v", false, "log controller decisions")

	fs.IntVar(&c.Admission.MaxConns, "max-conns", 0, "admission: cap on concurrent peer connections; excess get MsgBusy (0 = unlimited)")
	fs.Float64Var(&c.Admission.AssocRate, "assoc-rate", 0, "admission: association requests admitted per second; excess get MsgBusy (0 = unlimited)")
	fs.IntVar(&c.Admission.AssocBurst, "assoc-burst", 0, "admission: association token-bucket burst (0 = derive from -assoc-rate)")
	fs.IntVar(&c.BreakerFailures, "breaker-failures", 5, "cluster: consecutive relay failures that trip a group's circuit breaker")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", time.Second, "cluster: how long a tripped relay breaker fast-refuses before probing")

	fs.StringVar(&c.Journal, "journal", "", "write-ahead journal directory (empty = no durability)")
	fs.Func("fsync", "journal fsync policy: always, interval or off (default always)", func(s string) (err error) {
		c.Fsync, err = journal.ParseFsyncPolicy(s)
		return err
	})
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 1024, "journal: checkpoint and rotate after this many records, and not before the log since the last checkpoint outweighs it (0 = never)")
	fs.IntVar(&c.RecoverCheck, "recover-check", -1, "recover from -journal, assert this many recovered assignments, then exit (CI)")

	fs.StringVar(&c.Drive, "drive", "", "drive a running controller at this address: register APs, associate stations, hold")
	fs.IntVar(&c.DriveAPs, "drive-aps", 3, "drive mode: AP agent count")
	fs.IntVar(&c.DriveStations, "drive-stations", 8, "drive mode: station count")
	fs.DurationVar(&c.DriveHold, "drive-hold", time.Minute, "drive mode: how long to hold connections open")

	fs.StringVar(&c.Cluster, "cluster", "", "federation cluster root directory (enables cluster mode; requires -node-id and -peers or -ownership)")
	fs.StringVar(&c.NodeID, "node-id", "", "cluster: this replica's name in the ownership map")
	fs.StringVar(&c.Peers, "peers", "", "cluster: comma-separated replica names; home groups assigned round-robin unless -ownership")
	fs.StringVar(&c.Ownership, "ownership", "", "cluster: explicit group=node home map, e.g. 0=alpha,1=beta,2=alpha")
	fs.IntVar(&c.FedGroups, "fed-groups", 0, "cluster: federation group count (default: number of peers)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 2*time.Second, "cluster: group lease TTL; a silent owner is failed over after this long")
	fs.DurationVar(&c.ClusterHold, "cluster-hold", 0, "cluster: exit after this long instead of waiting for a signal (tests/CI)")
	fs.StringVar(&c.FedStatus, "fed-status", "", "print a cluster root's per-group lease status as JSON, then exit")
	return c
}

// Validate refuses flags that the chosen mode would otherwise ignore or
// that conflict, and under -cluster resolves the ownership map.
func (c *protoConfig) Validate() error {
	modes := 0
	for _, on := range []bool{c.FedStatus != "", c.Drive != "", c.RecoverCheck >= 0, c.Demo, c.Cluster != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return errors.New("pass at most one of -fed-status, -drive, -recover-check, -demo and -cluster")
	case c.RecoverCheck >= 0 && c.Journal == "":
		return errors.New("-recover-check requires -journal")
	case c.Admission.AssocBurst != 0 && c.Admission.AssocRate <= 0:
		return errors.New("-assoc-burst requires -assoc-rate")
	case c.Cluster == "":
		return nil
	case c.Journal != "":
		return errors.New("-cluster manages one journal per group under the cluster root; drop -journal (-fsync and -checkpoint-every still apply)")
	case c.NodeID == "":
		return errors.New("-cluster requires -node-id")
	}
	var err error
	if c.Ownership != "" {
		groups := c.FedGroups
		if groups == 0 {
			groups = len(strings.Split(c.Ownership, ","))
		}
		c.own, err = federation.ParseOwnership(c.Ownership, groups)
		return err
	}
	var names []string
	for _, p := range strings.Split(c.Peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	if len(names) == 0 {
		return errors.New("-cluster requires -peers or -ownership")
	}
	c.own, err = federation.DefaultOwnership(names, c.FedGroups)
	return err
}

func (c *protoConfig) journalOptions() journal.Options {
	return journal.Options{Fsync: c.Fsync, CheckpointEvery: c.CheckpointEvery}
}

// awaitSignal blocks until SIGINT or SIGTERM and reports which.
func awaitSignal(out io.Writer) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(out, "shutting down (%v)\n", <-sig)
}

// runCluster serves one replica of the federated controller cluster:
// every group starts as a follower tailing the shared-root journals,
// the lease loop claims this node's home groups (and any expired
// lease), and the routing front-end serves or relays every peer. The
// health banner — node identity, per-group role, ownership epoch and
// replication position — is printed once the home groups settle and
// again at shutdown, so scripts assert cluster state from stdout.
func runCluster(c *protoConfig, selector wlan.Selector, ctrlOpts []protocol.ControllerOption, out io.Writer) error {
	home := c.own.HomeGroups(c.NodeID)
	if len(home) == 0 {
		fmt.Fprintf(out, "note: %s homes no groups; serving as router and standby only\n", c.NodeID)
	}

	ncfg := federation.Config{
		NodeID:      c.NodeID,
		Root:        c.Cluster,
		Ownership:   c.own,
		LeaseTTL:    c.LeaseTTL,
		NewSelector: func() wlan.Selector { return selector },
		ControllerOpts: func(int) []protocol.ControllerOption {
			return ctrlOpts
		},
		Journal:         c.journalOptions(),
		BreakerFailures: c.BreakerFailures,
		BreakerCooldown: c.BreakerCooldown,
	}
	if c.Verbose {
		ncfg.Logger = log.New(out, "federation: ", log.Ltime)
	}
	node, err := federation.NewNode(ncfg)
	if err != nil {
		return err
	}
	addr, err := node.Listen(c.Listen)
	if err != nil {
		node.Close()
		return err
	}
	fmt.Fprintf(out, "cluster node %s (%s policy) listening on %s: %d groups, home %v, lease TTL %v\n",
		c.NodeID, selector.Name(), addr, c.own.Groups(), home, c.LeaseTTL)
	for _, g := range home {
		if _, werr := node.WaitOwner(g, 4*c.LeaseTTL+2*time.Second); werr != nil {
			fmt.Fprintf(out, "cluster: %v\n", werr)
		}
	}
	writeFedHealth(out, node.Health())

	if c.ClusterHold > 0 {
		time.Sleep(c.ClusterHold)
	} else {
		awaitSignal(out)
	}
	writeFedHealth(out, node.Health())
	writeHealth(out)
	return node.Close()
}

// writeFedHealth prints the node's federation health block as JSON.
func writeFedHealth(out io.Writer, h federation.Health) {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		fmt.Fprintf(out, "cluster health: %v\n", err)
		return
	}
	fmt.Fprintf(out, "cluster health:\n%s\n", data)
}

// runFedStatus prints a cluster root's per-group lease status as JSON:
// owner, epoch, serve address, lease age and whether it has expired.
func runFedStatus(root string, out io.Writer) error {
	leases, err := federation.ReadLeases(root)
	if err != nil {
		return err
	}
	now := time.Now().UnixMilli()
	type row struct {
		*federation.Lease
		AgeMs   int64 `json:"age_ms"`
		Expired bool  `json:"expired"`
	}
	rows := make([]row, 0, len(leases))
	for _, l := range leases {
		rows = append(rows, row{Lease: l, AgeMs: now - l.Renewed, Expired: l.Expired(now)})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// writeRecovery prints a journal-enabled controller's recovery summary.
func writeRecovery(out io.Writer, rec *protocol.RecoverySummary) {
	fmt.Fprintf(out,
		"journal recovery: checkpoint seq %d, %d records replayed, %d APs, %d assignments (corrupt skipped %d, torn tails %d, replay errors %d)\n",
		rec.Stats.CheckpointSeq, rec.Stats.RecordsReplayed, rec.APs, rec.Assignments,
		rec.Stats.CorruptSkipped, rec.Stats.TornTails, rec.ReplayErrors)
}

// fleet is the AP agents and stations that -demo and -drive hold open
// against a controller.
type fleet struct {
	agents   []*protocol.APAgent
	stations []*protocol.Station
}

// dial registers aps AP agents (ap-0, ap-1, …) with the controller at
// addr, then associates stations stations (user-0000, …), each sending
// 1 MiB. The caller closes the fleet, also after an error.
func (f *fleet) dial(addr string, aps, stations int, out io.Writer) error {
	const timeout = 5 * time.Second
	for i := 0; i < aps; i++ {
		agent, err := protocol.DialAP(addr, trace.APID(fmt.Sprintf("ap-%d", i)), 10e6, timeout)
		if err != nil {
			return fmt.Errorf("dial AP %d: %w", i, err)
		}
		f.agents = append(f.agents, agent)
		if err := agent.Report(0); err != nil {
			return fmt.Errorf("AP %d report: %w", i, err)
		}
	}
	fmt.Fprintf(out, "registered %d APs\n", aps)
	for i := 0; i < stations; i++ {
		user := trace.UserID(fmt.Sprintf("user-%04d", i))
		st, err := protocol.DialStation(addr, user, timeout)
		if err != nil {
			return fmt.Errorf("dial station %s: %w", user, err)
		}
		f.stations = append(f.stations, st)
		ap, err := st.Associate(50e3)
		if err != nil {
			return fmt.Errorf("associate station %s: %w", user, err)
		}
		fmt.Fprintf(out, "station %s -> %s\n", user, ap)
		if err := st.SendTraffic(1 << 20); err != nil {
			return fmt.Errorf("traffic station %s: %w", user, err)
		}
	}
	return nil
}

func (f *fleet) close() {
	for _, st := range f.stations {
		st.Close()
	}
	for _, agent := range f.agents {
		agent.Close()
	}
}

// runDrive is the crash-smoke load driver: a pure client that dials a
// fleet against a running controller, then holds every connection open
// — keeping the associations live on the controller — until the hold
// elapses or the controller goes away (our cue that the kill happened).
func runDrive(c *protoConfig, out io.Writer) error {
	var f fleet
	defer f.close()
	if err := f.dial(c.Drive, c.DriveAPs, c.DriveStations, out); err != nil {
		return fmt.Errorf("drive: %w", err)
	}
	fmt.Fprintf(out, "drive: holding %v\n", c.DriveHold)

	deadline := time.Now().Add(c.DriveHold)
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		// Heartbeat reports keep the believed loads current (the
		// prototype enables no AP leases, so nothing expires); a failed
		// report means the controller is gone, which ends the hold.
		for _, agent := range f.agents {
			if err := agent.Report(1e6); err != nil {
				fmt.Fprintln(out, "drive: controller gone, exiting")
				return nil
			}
		}
	}
	return nil
}

// buildSelector returns the requested policy. The S³ policies are primed
// on a small generated campus so the demo has a sociality model to work
// with; a production deployment would train on the site's own history.
// For s3-live the returned engine is non-nil and must be wired to the
// controller as observer and refresher: it serves the batch-trained type
// prior immediately and learns P(L|E) from the live association stream.
func buildSelector(policy string, refreshEvents int) (wlan.Selector, *incremental.Engine, error) {
	switch policy {
	case "llf":
		return baseline.LLF{}, nil, nil
	case "s3":
		model, err := trainDemoModel()
		if err != nil {
			return nil, nil, err
		}
		sel, err := core.NewSelector(model, core.DefaultSelectorConfig())
		return sel, nil, err
	case "s3-live":
		model, err := trainDemoModel()
		if err != nil {
			return nil, nil, err
		}
		cfg := incremental.DefaultConfig()
		cfg.RefreshEvents = refreshEvents
		engine := incremental.New(cfg)
		engine.SetTypes(model.Types, model.TypeMatrix)
		engine.Refresh()
		sel, err := core.NewSelector(engine, core.DefaultSelectorConfig())
		return sel, engine, err
	default:
		return nil, nil, fmt.Errorf("unknown policy %q (want s3, s3-live or llf)", policy)
	}
}

// demoCampus is the campus the demo's model is trained on.
func demoCampus() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 120
	cfg.Buildings = 2
	cfg.APsPerBuilding = 3
	cfg.Days = 10
	return cfg
}

// trainDemoModel batch-trains a sociality model on the demo campus, its
// profiles built from every flow as the campus is drawn.
func trainDemoModel() (*society.Model, error) {
	cfg := demoCampus()
	tr, profiles, _, err := synth.GenerateProfiles(cfg, cfg.Epoch+int64(cfg.Days)*86400)
	if err != nil {
		return nil, fmt.Errorf("generate training campus: %w", err)
	}
	model, err := society.Train(tr, profiles, society.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("train sociality model: %w", err)
	}
	return model, nil
}

// runDemo dials a fleet of three APs and six stations, has two stations
// leave together (a co-leaving) and prints the controller's state.
func runDemo(ctl *protocol.Controller, addr string, out io.Writer) error {
	var f fleet
	defer f.close()
	if err := f.dial(addr, 3, 6, out); err != nil {
		return err
	}
	for _, st := range f.stations[:2] {
		if err := st.Disassociate(); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Millisecond) // let the controller settle

	fmt.Fprintln(out, "\ncontroller state after co-leaving:")
	snap := ctl.Snapshot()
	for i := range f.agents {
		id := trace.APID(fmt.Sprintf("ap-%d", i))
		fmt.Fprintf(out, "  %s: %d users, %d bytes served\n",
			id, len(snap[id].Users), snap[id].ServedBytes)
	}
	return nil
}

// writeHealth prints the protocol.*, domain.*, society.*, journal.*
// and federation.* health metrics (counters and gauges) from the obs
// registry in sorted order.
func writeHealth(out io.Writer) {
	snap := obs.TakeSnapshot()
	vals := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges))
	add := func(name string, v int64) {
		if strings.HasPrefix(name, "protocol.") || strings.HasPrefix(name, "domain.") ||
			strings.HasPrefix(name, "society.") || strings.HasPrefix(name, "journal.") ||
			strings.HasPrefix(name, "federation.") {
			names = append(names, name)
			vals[name] = v
		}
	}
	for name, v := range snap.Counters {
		add(name, v)
	}
	for name, v := range snap.Gauges {
		add(name, v)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %s = %d\n", name, vals[name])
	}
}
