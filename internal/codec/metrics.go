package codec

import (
	"time"

	"chimera/internal/obs"
)

// Codec metrics: encode/decode CPU and byte volume per codec. Series
// are labeled by the codec registry name so a mixed deployment (binary
// snapshots, JSON wire fallback for old members) shows where the cycles
// and bytes go.
var (
	metricEncodeSeconds = obs.Default.HistogramVec("vdc_codec_encode_seconds",
		"Latency of one snapshot/delta encode, by codec.", obs.TimeBuckets, "codec")
	metricDecodeSeconds = obs.Default.HistogramVec("vdc_codec_decode_seconds",
		"Latency of one snapshot/delta decode, by codec.", obs.TimeBuckets, "codec")
	metricEncodeBytes = obs.Default.CounterVec("vdc_codec_encode_bytes_total",
		"Bytes produced by snapshot/delta encodes, by codec.", "codec")
	metricDecodeBytes = obs.Default.CounterVec("vdc_codec_decode_bytes_total",
		"Bytes consumed by snapshot/delta decodes, by codec.", "codec")

	encSecJSON = metricEncodeSeconds.With(JSONName)
	encSecBin  = metricEncodeSeconds.With(BinaryName)
	decSecJSON = metricDecodeSeconds.With(JSONName)
	decSecBin  = metricDecodeSeconds.With(BinaryName)
	encBJSON   = metricEncodeBytes.With(JSONName)
	encBBin    = metricEncodeBytes.With(BinaryName)
	decBJSON   = metricDecodeBytes.With(JSONName)
	decBBin    = metricDecodeBytes.With(BinaryName)
)

func observeEncode(name string, start time.Time) {
	if name == BinaryName {
		encSecBin.ObserveSince(start)
	} else {
		encSecJSON.ObserveSince(start)
	}
}

func observeDecode(name string, start time.Time) {
	if name == BinaryName {
		decSecBin.ObserveSince(start)
	} else {
		decSecJSON.ObserveSince(start)
	}
}

func encBytes(name string, n int) {
	if name == BinaryName {
		encBBin.Add(uint64(n))
	} else {
		encBJSON.Add(uint64(n))
	}
}

func decBytes(name string, n int) {
	if name == BinaryName {
		decBBin.Add(uint64(n))
	} else {
		decBJSON.Add(uint64(n))
	}
}
