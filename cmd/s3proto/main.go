// Command s3proto runs the S³ prototype: a WLAN controller speaking the
// framed binary protocol over TCP, either as a standalone server, a
// self-contained demo that also spins up AP agents and stations, a
// client that loads a running controller (-drive), or one replica of a
// federated cluster.
//
// Usage:
//
//	s3proto -listen 127.0.0.1:7788 -policy s3     # standalone controller
//	s3proto -policy s3-live -refresh-every 5s     # learn sociality live
//	s3proto -demo                                  # end-to-end demo
//	s3proto -journal /var/lib/s3/journal           # crash-safe state
//	s3proto -drive 127.0.0.1:7788 -drive-hold 30s  # load a running controller
//	s3proto -journal dir -recover-check 8          # assert recovery (CI)
//	s3proto -pprof localhost:6060                  # pprof + Prometheus /metrics
//	s3proto -flight-dir /var/lib/s3/flight         # always-on flight recorder
//	s3proto -cluster /srv/s3 -node-id alpha -peers alpha,beta,gamma
//	                                               # one replica of a federated cluster
//	s3proto -fed-status /srv/s3                    # per-group lease status (JSON)
//	s3proto -max-conns 256 -assoc-rate 500         # admission control: shed excess with MsgBusy
//	s3proto -cluster ... -breaker-failures 5 -breaker-cooldown 1s
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
// With -pprof the debug HTTP server also serves /metrics in Prometheus
// text format (every internal/obs counter, gauge and histogram). With
// -flight-dir a background flight recorder (internal/obs/flight)
// delta-encodes periodic snapshots of the whole metric registry into a
// bounded on-disk ring that survives kill -9; decode it with s3diag.
// See docs/OBSERVABILITY.md for the full metric catalog.
//
// The s3-live policy runs the incremental social-state engine
// (internal/society/incremental) in the control loop: the controller's
// association events feed the engine, the engine publishes immutable θ
// snapshots on a refresh tick, and the S³ selector reads them lock-free.
// The type prior is seeded from a batch-trained model; P(L|E) is learned
// live from the deployment's own co-leavings.
package main

import (
	"encoding/json"
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

	"github.com/s3wlan/s3wlan/internal/apps"
	"github.com/s3wlan/s3wlan/internal/baseline"
	"github.com/s3wlan/s3wlan/internal/core"
	"github.com/s3wlan/s3wlan/internal/federation"
	"github.com/s3wlan/s3wlan/internal/journal"
	"github.com/s3wlan/s3wlan/internal/obs"
	"github.com/s3wlan/s3wlan/internal/obs/flight"
	"github.com/s3wlan/s3wlan/internal/protocol"
	"github.com/s3wlan/s3wlan/internal/society"
	"github.com/s3wlan/s3wlan/internal/society/incremental"
	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
	"github.com/s3wlan/s3wlan/internal/wlan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "s3proto:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("s3proto", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "controller listen address")
		policy   = fs.String("policy", "s3", "association policy: s3, s3-live or llf")
		refEvery = fs.Duration("refresh-every", 5*time.Second, "s3-live: periodic snapshot refresh interval")
		refEvts  = fs.Int("refresh-events", 256, "s3-live: also refresh after this many association events (0 = periodic only)")
		demo     = fs.Bool("demo", false, "run the self-contained demo (controller + APs + stations)")
		verbose  = fs.Bool("v", false, "log controller decisions")

		maxConns   = fs.Int("max-conns", 0, "admission: cap on concurrent peer connections; excess get MsgBusy (0 = unlimited)")
		assocRate  = fs.Float64("assoc-rate", 0, "admission: association requests admitted per second; excess get MsgBusy (0 = unlimited)")
		assocBurst = fs.Int("assoc-burst", 0, "admission: association token-bucket burst (0 = derive from -assoc-rate)")
		brkFails   = fs.Int("breaker-failures", 5, "cluster: consecutive relay failures that trip a group's circuit breaker")
		brkCool    = fs.Duration("breaker-cooldown", time.Second, "cluster: how long a tripped relay breaker fast-refuses before probing")

		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and Prometheus /metrics on this address (e.g. localhost:6060)")
		flightDir   = fs.String("flight-dir", "", "flight-recorder ring directory (empty = off); decode with s3diag")
		flightEvery = fs.Duration("flight-every", time.Second, "flight recorder sampling period")
		flightMax   = fs.Int64("flight-max-bytes", flight.DefaultMaxBytes, "flight ring disk budget in bytes")

		journalDir = fs.String("journal", "", "write-ahead journal directory (empty = no durability)")
		fsyncMode  = fs.String("fsync", "always", "journal fsync policy: always, interval or off")
		ckptEvery  = fs.Int("checkpoint-every", 1024, "journal: checkpoint and rotate after this many records, and not before the log since the last checkpoint outweighs it (0 = never)")
		recovChk   = fs.Int("recover-check", -1, "recover from -journal, assert this many recovered assignments, then exit (CI)")

		driveAddr = fs.String("drive", "", "drive a running controller at this address: register APs, associate stations, hold")
		driveAPs  = fs.Int("drive-aps", 3, "drive mode: AP agent count")
		driveStns = fs.Int("drive-stations", 8, "drive mode: station count")
		driveHold = fs.Duration("drive-hold", time.Minute, "drive mode: how long to hold connections open")

		clusterRoot = fs.String("cluster", "", "federation cluster root directory (enables cluster mode; requires -node-id and -peers or -ownership)")
		nodeID      = fs.String("node-id", "", "cluster: this replica's name in the ownership map")
		peers       = fs.String("peers", "", "cluster: comma-separated replica names; home groups assigned round-robin unless -ownership")
		ownSpec     = fs.String("ownership", "", "cluster: explicit group=node home map, e.g. 0=alpha,1=beta,2=alpha")
		fedGroups   = fs.Int("fed-groups", 0, "cluster: federation group count (default: number of peers)")
		leaseTTL    = fs.Duration("lease-ttl", 2*time.Second, "cluster: group lease TTL; a silent owner is failed over after this long")
		clusterHold = fs.Duration("cluster-hold", 0, "cluster: exit after this long instead of waiting for a signal (tests/CI)")
		fedStatus   = fs.String("fed-status", "", "print a cluster root's per-group lease status as JSON, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Observability first, so every mode — server, demo, drive, cluster —
	// carries the pprof+/metrics surface and the flight recorder.
	stopProfiling, err := obs.StartProfiling(obs.ProfileConfig{HTTPAddr: *pprofAddr})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiling(); perr != nil && err == nil {
			err = perr
		}
	}()
	if *flightDir != "" {
		rec, ferr := flight.Start(flight.Options{
			Dir:      *flightDir,
			Every:    *flightEvery,
			MaxBytes: *flightMax,
		})
		if ferr != nil {
			return ferr
		}
		defer func() {
			if serr := rec.Stop(); serr != nil && err == nil {
				err = serr
			}
		}()
	}

	if *fedStatus != "" {
		return runFedStatus(*fedStatus, out)
	}
	if *driveAddr != "" {
		return runDrive(*driveAddr, *driveAPs, *driveStns, *driveHold, out)
	}

	selector, engine, err := buildSelector(*policy, *refEvts)
	if err != nil {
		return err
	}
	var opts []protocol.ControllerOption
	if *maxConns > 0 || *assocRate > 0 {
		opts = append(opts, protocol.WithAdmission(protocol.Admission{
			MaxConns:   *maxConns,
			AssocRate:  *assocRate,
			AssocBurst: *assocBurst,
		}))
	}
	if *verbose {
		opts = append(opts, protocol.WithLogger(log.New(out, "controller: ", log.Ltime)))
	}
	if engine != nil {
		opts = append(opts,
			protocol.WithObserver(engine),
			protocol.WithRefresher(func() { engine.Refresh() }, *refEvery))
	}

	if *clusterRoot != "" {
		if *journalDir != "" {
			return fmt.Errorf("-cluster manages one journal per group under the cluster root; drop -journal (-fsync and -checkpoint-every still apply)")
		}
		pol, err := journal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		return runCluster(clusterConfig{
			root:      *clusterRoot,
			nodeID:    *nodeID,
			peers:     *peers,
			ownSpec:   *ownSpec,
			groups:    *fedGroups,
			listen:    *listen,
			ttl:       *leaseTTL,
			hold:      *clusterHold,
			fsync:     pol,
			ckptEvery: *ckptEvery,
			brkFails:  *brkFails,
			brkCool:   *brkCool,
			verbose:   *verbose,
		}, selector, opts, out)
	}

	if *journalDir != "" {
		pol, err := journal.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		opts = append(opts, protocol.WithJournal(*journalDir, journal.Options{
			Fsync:           pol,
			CheckpointEvery: *ckptEvery,
		}))
	}

	if *recovChk >= 0 {
		if *journalDir == "" {
			return fmt.Errorf("-recover-check requires -journal")
		}
		ctl, err := protocol.NewController(selector, opts...)
		if err != nil {
			return err
		}
		rec := ctl.Recovery()
		writeRecovery(out, rec)
		if err := ctl.Close(); err != nil {
			return err
		}
		if rec.Assignments != *recovChk {
			return fmt.Errorf("recover-check: want %d recovered assignments, got %d",
				*recovChk, rec.Assignments)
		}
		fmt.Fprintf(out, "recover-check ok: %d assignments\n", rec.Assignments)
		return nil
	}

	ctl, err := protocol.NewController(selector, opts...)
	if err != nil {
		return err
	}
	addr, err := ctl.Listen(*listen)
	if err != nil {
		return err
	}
	defer ctl.Close()
	fmt.Fprintf(out, "controller (%s policy) listening on %s\n", selector.Name(), addr)
	if rec := ctl.Recovery(); rec != nil {
		writeRecovery(out, rec)
	}

	if *demo {
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
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(out, "shutting down (%v)\n", s)
	return nil
}

// clusterConfig parameterizes a federation replica.
type clusterConfig struct {
	root, nodeID, peers, ownSpec, listen string
	groups                               int
	ttl, hold                            time.Duration
	fsync                                journal.FsyncPolicy
	ckptEvery                            int
	brkFails                             int
	brkCool                              time.Duration
	verbose                              bool
}

// runCluster serves one replica of the federated controller cluster:
// every group starts as a follower tailing the shared-root journals,
// the lease loop claims this node's home groups (and any expired
// lease), and the routing front-end serves or relays every peer. The
// health banner — node identity, per-group role, ownership epoch and
// replication position — is printed once the home groups settle and
// again at shutdown, so scripts assert cluster state from stdout.
func runCluster(cfg clusterConfig, selector wlan.Selector, ctrlOpts []protocol.ControllerOption, out io.Writer) error {
	if cfg.nodeID == "" {
		return fmt.Errorf("-cluster requires -node-id")
	}
	var own *federation.Ownership
	var err error
	if cfg.ownSpec != "" {
		groups := cfg.groups
		if groups == 0 {
			groups = len(strings.Split(cfg.ownSpec, ","))
		}
		own, err = federation.ParseOwnership(cfg.ownSpec, groups)
	} else {
		var names []string
		for _, p := range strings.Split(cfg.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				names = append(names, p)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("-cluster requires -peers or -ownership")
		}
		own, err = federation.DefaultOwnership(names, cfg.groups)
	}
	if err != nil {
		return err
	}
	home := own.HomeGroups(cfg.nodeID)
	if len(home) == 0 {
		fmt.Fprintf(out, "note: %s homes no groups; serving as router and standby only\n", cfg.nodeID)
	}

	ncfg := federation.Config{
		NodeID:      cfg.nodeID,
		Root:        cfg.root,
		Ownership:   own,
		LeaseTTL:    cfg.ttl,
		NewSelector: func() wlan.Selector { return selector },
		ControllerOpts: func(int) []protocol.ControllerOption {
			return ctrlOpts
		},
		Journal:         journal.Options{Fsync: cfg.fsync, CheckpointEvery: cfg.ckptEvery},
		BreakerFailures: cfg.brkFails,
		BreakerCooldown: cfg.brkCool,
	}
	if cfg.verbose {
		ncfg.Logger = log.New(out, "federation: ", log.Ltime)
	}
	node, err := federation.NewNode(ncfg)
	if err != nil {
		return err
	}
	addr, err := node.Listen(cfg.listen)
	if err != nil {
		node.Close()
		return err
	}
	fmt.Fprintf(out, "cluster node %s (%s policy) listening on %s: %d groups, home %v, lease TTL %v\n",
		cfg.nodeID, selector.Name(), addr, own.Groups(), home, cfg.ttl)
	for _, g := range home {
		if _, werr := node.WaitOwner(g, 4*cfg.ttl+2*time.Second); werr != nil {
			fmt.Fprintf(out, "cluster: %v\n", werr)
		}
	}
	writeFedHealth(out, node.Health())

	if cfg.hold > 0 {
		time.Sleep(cfg.hold)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Fprintf(out, "shutting down (%v)\n", s)
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

// runDrive is the crash-smoke load driver: a pure client that registers
// AP agents, associates stations (with a little traffic each) against a
// running controller, then holds every connection open — keeping the
// associations live on the controller — until the hold elapses or the
// controller goes away (our cue that the kill happened).
func runDrive(addr string, aps, stations int, hold time.Duration, out io.Writer) error {
	const timeout = 5 * time.Second
	agents := make([]*protocol.APAgent, 0, aps)
	for i := 0; i < aps; i++ {
		agent, err := protocol.DialAP(addr,
			trace.APID(fmt.Sprintf("ap-%d", i)), 10e6, timeout)
		if err != nil {
			return fmt.Errorf("drive: dial AP %d: %w", i, err)
		}
		defer agent.Close()
		if err := agent.Report(0); err != nil {
			return fmt.Errorf("drive: AP %d report: %w", i, err)
		}
		agents = append(agents, agent)
	}
	for i := 0; i < stations; i++ {
		st, err := protocol.DialStation(addr,
			trace.UserID(fmt.Sprintf("user-%04d", i)), timeout)
		if err != nil {
			return fmt.Errorf("drive: dial station %d: %w", i, err)
		}
		defer st.Close()
		ap, err := st.Associate(50e3)
		if err != nil {
			return fmt.Errorf("drive: associate station %d: %w", i, err)
		}
		if err := st.SendTraffic(1 << 16); err != nil {
			return fmt.Errorf("drive: traffic station %d: %w", i, err)
		}
		fmt.Fprintf(out, "drive: user-%04d -> %s\n", i, ap)
	}
	fmt.Fprintf(out, "drive: %d APs registered, %d stations associated; holding %v\n",
		aps, stations, hold)

	deadline := time.Now().Add(hold)
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		// Heartbeat reports keep the believed loads current (s3proto
		// enables no AP leases, so nothing expires); a failed report
		// means the controller is gone, which ends the hold.
		for _, agent := range agents {
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

// trainDemoModel batch-trains a sociality model on a generated campus.
func trainDemoModel() (*society.Model, error) {
	cfg := synth.DefaultConfig()
	cfg.Users = 120
	cfg.Buildings = 2
	cfg.APsPerBuilding = 3
	cfg.Days = 10
	tr, _, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate training campus: %w", err)
	}
	profiles := apps.BuildProfiles(tr.Flows, cfg.Epoch, apps.NewClassifier())
	model, err := society.Train(tr, profiles, society.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("train sociality model: %w", err)
	}
	return model, nil
}

// runDemo registers AP agents and walks a handful of stations through the
// association lifecycle, printing the controller's state.
func runDemo(ctl *protocol.Controller, addr string, out io.Writer) error {
	const timeout = 5 * time.Second
	for i, capacity := range []float64{10e6, 10e6, 10e6} {
		agent, err := protocol.DialAP(addr,
			trace.APID(fmt.Sprintf("ap-%d", i)), capacity, timeout)
		if err != nil {
			return err
		}
		defer agent.Close()
		if err := agent.Report(0); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "registered 3 APs")

	stations := make([]*protocol.Station, 0, 6)
	for i := 0; i < 6; i++ {
		st, err := protocol.DialStation(addr,
			trace.UserID(fmt.Sprintf("user-%04d", i)), timeout)
		if err != nil {
			return err
		}
		defer st.Close()
		ap, err := st.Associate(50e3)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "station user-%04d -> %s\n", i, ap)
		if err := st.SendTraffic(1 << 20); err != nil {
			return err
		}
		stations = append(stations, st)
	}

	// Two stations leave together (a co-leaving).
	for _, st := range stations[:2] {
		if err := st.Disassociate(); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Millisecond) // let the controller settle

	fmt.Fprintln(out, "\ncontroller state after co-leaving:")
	snap := ctl.Snapshot()
	for _, id := range []trace.APID{"ap-0", "ap-1", "ap-2"} {
		st := snap[id]
		fmt.Fprintf(out, "  %s: %d users, %d bytes served\n",
			id, len(st.Users), st.ServedBytes)
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
