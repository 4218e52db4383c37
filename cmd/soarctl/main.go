// Command soarctl is the command-line front end of the SOAR
// reproduction: it computes placements on configurable topologies,
// replays the paper's walkthrough example, regenerates every evaluation
// figure, and runs the TCP-cluster deployment.
//
// Usage:
//
//	soarctl demo
//	soarctl place   [-topo bt|sf] [-n 256] [-k 16] [-dist uniform|powerlaw]
//	                [-rates constant|linear|exp] [-seed 1] [-dot file]
//	                [-caps uniform:C|tiered:C0,C1,...|tor:P,C|powerlaw:MAX,ALPHA]
//	soarctl exp     <fig6|fig7|fig8|fig9|fig10|fig11|ext-*|all> [-quick]
//	                [-csv dir] [-reps N] [-caps uniform|tiered|tor|powerlaw]
//	soarctl cluster [-n 64] [-k 8] [-seed 1]
//	soarctl top     [-addr http://127.0.0.1:7070] [-every 1s] [-n 0] [-once]
//	soarctl shards  [-addr http://127.0.0.1:7070] [-timeout 5s]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = runDemo(os.Args[2:])
	case "place":
		err = runPlace(os.Args[2:])
	case "exp":
		err = runExp(os.Args[2:])
	case "cluster":
		err = runCluster(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "top":
		err = runTop(os.Args[2:])
	case "shards":
		err = runShards(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "soarctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, flag.ErrHelp) {
		return // -h: the flag set already printed its usage
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "soarctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `soarctl — SOAR (CoNEXT 2021) reproduction toolkit

Commands:
  demo       walk through the paper's Figs. 2-3 example
  place      compute placements for one instance, all strategies
  exp        regenerate a paper figure (fig6..fig11, ext-*, or all)
  cluster    run SOAR + Reduce over a loopback TCP mesh
  verify     certify the solver against brute force on random instances
  top        poll a running soar-naasd's /metrics and render a live summary
  shards     show a sharded soar-naasd's membership: primaries, epochs, standbys

Run 'soarctl <command> -h' for flags.
`)
}

// newFlagSet returns a flag set whose parse errors come back from the
// run* functions like any other usage error (an unknown flag included)
// instead of exiting the process from inside Parse.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}
