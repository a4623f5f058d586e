package main

import (
	"fmt"
	"io"

	"github.com/s3wlan/s3wlan/internal/synth"
	"github.com/s3wlan/s3wlan/internal/trace"
)

// runGen generates a synthetic enterprise-WLAN campus trace with the
// social structure of the S³ study and writes it as JSON-lines:
//
//	s3 gen -out campus.jsonl [-preset campus|office|conference|paper] [-seed 1]
//	       [-users N] [-buildings N] [-aps N] [-days N] [-capacity Bps]
//
// Size flags set on the command line override the preset.
func runGen(args []string, out io.Writer) error {
	fs := newFlagSet("gen")
	var (
		outPath  = fs.String("out", "campus.jsonl", "output trace path (JSON-lines)")
		seed     = fs.Int64("seed", 1, "generator seed")
		capacity = fs.Float64("capacity", 12e6, "AP capacity, bytes/second")
		preset   = fs.String("preset", "campus", "scenario preset: campus, office, conference or paper (the paper's scale)")
		sizes    = campusFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := synth.Preset(*preset)
	if err != nil {
		return err
	}
	sizes(&cfg)
	cfg.APCapacityBps = *capacity // every preset keeps the default capacity
	cfg.Seed = *seed

	tr, truth, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	if err := trace.SaveFile(*outPath, tr); err != nil {
		return err
	}
	start, end := tr.TimeRange()
	fmt.Fprintf(out, "wrote %s\n", *outPath)
	fmt.Fprintf(out, "  users:       %d (%d groups)\n", len(tr.Users()), len(truth.Groups))
	fmt.Fprintf(out, "  topology:    %d buildings, %d APs\n", cfg.Buildings, len(tr.Topology.APs))
	fmt.Fprintf(out, "  sessions:    %d\n", len(tr.Sessions))
	fmt.Fprintf(out, "  flows:       %d\n", len(tr.Flows))
	fmt.Fprintf(out, "  time range:  %s .. %s\n",
		trace.FormatTime(start), trace.FormatTime(end))
	return nil
}
