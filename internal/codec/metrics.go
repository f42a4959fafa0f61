package codec

import "chimera/internal/obs"

// Codec metrics: encode/decode CPU and byte volume per codec, fed only
// by whole-state and delta bodies: EncodeSnapshot, DecodeSnapshot,
// EncodeDelta, DecodeDelta and the JSON codec behind Lookup. Search
// replies (EncodeReply, DecodeReply) stay out, so tens of thousands of
// small replies do not swamp the snapshot and crawl samples. Series
// are labeled by the codec name (json/v1, binary/v1).
var (
	metricEncodeSeconds = obs.Default.HistogramVec("vdc_codec_encode_seconds",
		"Latency of one snapshot or delta encode (snapshot writes, binary /v1/export bodies), by codec; search replies are not observed.", obs.TimeBuckets, "codec")
	metricDecodeSeconds = obs.Default.HistogramVec("vdc_codec_decode_seconds",
		"Latency of one snapshot or delta decode (snapshot loads, binary export and crawl bodies), by codec; search replies are not observed.", obs.TimeBuckets, "codec")
	metricEncodeBytes = obs.Default.CounterVec("vdc_codec_encode_bytes_total",
		"Bytes produced by snapshot and delta encodes (snapshot writes, binary /v1/export bodies), by codec; search replies are not counted.", "codec")
	metricDecodeBytes = obs.Default.CounterVec("vdc_codec_decode_bytes_total",
		"Bytes consumed by snapshot and delta decodes (snapshot loads, binary export and crawl bodies), by codec; search replies are not counted.", "codec")

	encSecJSON = metricEncodeSeconds.With(JSONName)
	encSecBin  = metricEncodeSeconds.With(BinaryName)
	decSecJSON = metricDecodeSeconds.With(JSONName)
	decSecBin  = metricDecodeSeconds.With(BinaryName)
	encBJSON   = metricEncodeBytes.With(JSONName)
	encBBin    = metricEncodeBytes.With(BinaryName)
	decBJSON   = metricDecodeBytes.With(JSONName)
	decBBin    = metricDecodeBytes.With(BinaryName)
)
