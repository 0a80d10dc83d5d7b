package main

// Recorded digests of the benchmark's fixed-seed outputs and generated
// inputs. Both commits of a comparison must reproduce them byte for byte:
// a mismatch is a failed check, not a new baseline.
const (
	// pipelineDigest is the SHA-256 of the pipeline's rendered Table 1,
	// Table 2 and scan summary at seed 42.
	pipelineDigest = "d4162cb67ccbd1584fbdd8f4eeab7b4262a996e9bb73c31835582372214895d1"
	// checkpointDigest is the input checkpoint: a store fed the seed-42
	// vantage-w survey, saved at epoch 1.
	checkpointDigest = "ee3f805f566338b1627cbf508a45667cd042abffe38c797bdcbbb5bc3a3bc0c4"
	// datasetDigest is the seed-42 vantage-c survey dataset, TOSV.
	datasetDigest = "a182def5cdd714e3086c5bdecde5ff8da91e3b9fb74da193e54e79f114098f5b"
	// snapshotDigest is the /snapshot advisord must publish after
	// recovering the checkpoint and ingesting the dataset, epoch blanked.
	snapshotDigest = "39929bef5f935802e0dc8c4363ee8b5cc88a4e4b5b77248bddab76b4715316c3"
	// requestMixDigest is the seed-42 request mix's paths.
	requestMixDigest = "05324195b0777a339f370a07c17936eede86a097e122d0c46c94843d3a55efe0"
)
