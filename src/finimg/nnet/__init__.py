from .builders import (
    ENCODER_LAYERS,
    MIN_SIDE,
    InputTooSmallError,
    build_autoencoder,
    build_cnn1d,
    build_cnn2d,
    build_mlp,
)
from .layers import loss_crossentropy, softmax
from .network import (
    Network,
    NetworkSpec,
    SpecError,
    network_arrays,
    network_from_arrays,
    save_arrays,
)
from .train import (
    DivergenceError,
    GridSearchRow,
    TrainConfig,
    backward_and_step,
    classification_accuracy,
    gradient_check,
    grid_search,
    make_optimizer,
)
