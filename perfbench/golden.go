package main

// golden pins one workload's virtual-time outputs, cell by cell, for
// one instance seed. The values were produced by the sequential kernel;
// any later change that alters a simulated result shows here first.
type golden struct {
	seed  int64
	cells map[string]string
}

var goldens = map[string]golden{
	"tsp-switch": {seed: 102, cells: map[string]string{
		"tsp/AM/32":   "elapsed=498928600 answer=2858 oams=0 successes=0 threads=33",
		"tsp/ORPC/32": "elapsed=406752900 answer=2858 oams=8464 successes=8433 threads=64",
		"tsp/TRPC/32": "elapsed=423958900 answer=2858 oams=0 successes=0 threads=8497",
	}},
	"triangle-rpc": {seed: 101, cells: map[string]string{
		"triangle/ORPC/32": "elapsed=659924400 answer=266871356732 oams=1149550 successes=1149550 threads=32",
	}},
	"kv-overload": {seed: 17, cells: map[string]string{
		"kv/steady-0.5x/ORPC":  "elapsed=12204130 answer=14940546713251696971 oams=804 successes=772 threads=843 arrivals=707 ok=707 drops=0 shed_gu=0 timeout_gu=0 sheds=0 p50=100000 p99=300000 p999=300000 rec=bc4cb3f2e7370e03 fault=0000000000000000",
		"kv/steady-0.5x/TRPC":  "elapsed=12204130 answer=14940546713251696971 oams=0 successes=0 threads=1615 arrivals=707 ok=707 drops=0 shed_gu=0 timeout_gu=0 sheds=0 p50=100000 p99=300000 p999=300000 rec=1b6509ce8bb2f20f fault=0000000000000000",
		"kv/steady-2x/ORPC":    "elapsed=15420512 answer=8765327131283990324 oams=4465 successes=4430 threads=1936 arrivals=2869 ok=762 drops=1072 shed_gu=0 timeout_gu=1035 sheds=3591 p50=10000000 p99=10000000 p999=10000000 rec=fdf2192ea060d1b4 fault=0000000000000000",
		"kv/steady-2x/TRPC":    "elapsed=15469294 answer=3656876640285022574 oams=0 successes=0 threads=5687 arrivals=2869 ok=122 drops=1447 shed_gu=0 timeout_gu=1300 sheds=4025 p50=10000000 p99=10000000 p999=10000000 rec=b20ded7aadf9e2a8 fault=0000000000000000",
		"kv/zipf-read/cores1":  "elapsed=15441542 answer=4355670968565493869 oams=4416 successes=4416 threads=1726 arrivals=2869 ok=496 drops=1247 shed_gu=0 timeout_gu=1126 sheds=3903 p50=10000000 p99=10000000 p999=10000000 rec=2c6be4a425acf825 fault=0000000000000000",
		"kv/zipf-read/cores4":  "elapsed=12251358 answer=8697164678820048307 oams=2978 successes=2978 threads=2973 arrivals=2869 ok=2869 drops=0 shed_gu=0 timeout_gu=0 sheds=0 p50=100000 p99=300000 p999=300000 rec=2c6be4a425acf825 fault=0000000000000000",
		"kv/zipf-write/cores4": "elapsed=12240749 answer=17672239735833542448 oams=1697 successes=1559 threads=1684 arrivals=1442 ok=1442 drops=0 shed_gu=0 timeout_gu=0 sheds=0 p50=100000 p99=300000 p999=300000 rec=aadbf3de222e1f71 fault=0000000000000000",
		"kv/lossy/ORPC":        "elapsed=12439834 answer=4222227254211544071 oams=1646 successes=1570 threads=1622 arrivals=1442 ok=1442 drops=0 shed_gu=0 timeout_gu=0 sheds=0 p50=100000 p99=300000 p999=1000000 rec=90c906d04eb146f0 fault=8db1715e0dcb643b",
	}},
	"quick-suite": {seed: 0, cells: map[string]string{
		"exp/table1":      "tables=a41a01447afc8b8a",
		"exp/bulk":        "tables=f03bcf02cf9a31be",
		"exp/abortcost":   "tables=b5995e9e399ee9e1",
		"exp/fig1":        "tables=a69cc66041fb9f92",
		"exp/fig2":        "tables=be93e606ef8e7c21",
		"exp/table2":      "tables=02784dc67a23e0b6",
		"exp/fig3":        "tables=4157f2262ae02174",
		"exp/fig4":        "tables=e3774c1c75aaa3e8",
		"exp/table3":      "tables=6b25e42220992086",
		"exp/ablation":    "tables=669e765d03304bc9",
		"exp/appablation": "tables=b13b42d7384afd98",
		"exp/schedpolicy": "tables=6511eb3b78aafacc",
		"exp/budget":      "tables=c60568d5902ece85",
		"exp/buffering":   "tables=bb2db5b6004d2cc3",
		"exp/interrupts":  "tables=bef0b2b258f33203",
		"exp/sorsizes":    "tables=84b18d3e3d5bf9bb",
		"exp/chaos":       "tables=e4e3eda7a720f8e6",
		"exp/sched":       "tables=48258d8fbc47b0c4",
		"exp/kv":          "tables=094ad205c52e9831",
		"exp/kvmulti":     "tables=d75e3769fa48229b",
	}},
}

// quickSuiteEvents is the simulated kernel event total of one quick-suite
// pass. exp builds its engines privately, so the benchmark cannot read
// Engine.Events() for this workload; the suite's configuration is fixed
// and its outputs are pinned above, so the total is a constant. It was
// counted once by summing Engine.Events() over every engine a pass
// creates (an instrumented copy of sim); it must be counted again when a
// change alters how many events the suite's simulations fire.
const quickSuiteEvents = 12395785
